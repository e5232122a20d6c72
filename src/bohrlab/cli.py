"""Command-line front end.

Subcommands: enumerate, poly, norm, bound, witness, bohr, sweep, selftest.
poly, bound, witness and bohr take a kind ("bohr table") with a parser and a
function of its own; every parser offers only the flags its function reads,
so an artifact's config header lists exactly the inputs that made it.
Exit status 0 on success, 2 on validation/usage errors, 3 on budget
exhaustion.  Exponents are accepted as exact rationals ("4/3") or the
literal "inf".  Identical configs give byte-identical artifacts; the seed
defaults to the BOHRLAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bohr as bohr_mod
from . import bounds, multiindex, optimize, polynomial, witness
from .errors import BudgetExceededError


def parse_exponent(s: str) -> float:
    if s.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        v = float(Fraction(s))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad exponent {s!r}") from exc
    if v < 1:
        raise argparse.ArgumentTypeError(f"exponent must be >= 1, got {s}")
    return v


def parse_grid(s: str) -> list[int]:
    try:
        return [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer grid {s!r}") from exc


def default_seed() -> int:
    return int(os.environ.get("BOHRLAB_SEED", "0"))


def config_line(ns: argparse.Namespace) -> dict:
    return {k: str(v) for k, v in sorted(vars(ns).items()) if k not in ("func", "out")}


class Table(NamedTuple):
    """An artifact of typed rows under header: a CSV table, or in JSON one
    record per row (one object, not a list, when one is set)."""
    header: tuple[str, ...]
    rows: list[list]
    one: bool = False


def _cell(v) -> str:
    """A CSV cell: None is empty, a float has 17 significant digits and a
    list (or tuple) is joined by ";"."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return ";".join(map(str, v))
    return str(v)


def emit(ns: argparse.Namespace, payload) -> None:
    """Write the artifact (config header included) to --out or stdout, as it
    is encoded: no copy of the whole text is held in memory.  The only code
    that reads --format: a Table is written as CSV or as JSON records (a
    non-finite float null), any other payload as JSON.  CSV rows go
    through csv.writer with minimal quoting, so a field holding a comma
    (a source such as "brute oracle (estimate-based, slack-deflated)")
    stays one field."""
    cfg = config_line(ns)
    with open(ns.out, "w") if ns.out else contextlib.nullcontext(sys.stdout) as fh:
        if ns.format == "json":
            if isinstance(payload, Table):  # JSON has no inf or NaN
                records = [{h: None if isinstance(v, float) and not math.isfinite(v) else v
                            for h, v in zip(payload.header, row)} for row in payload.rows]
                payload = records[0] if payload.one else records
            json.dump({"config": cfg, "result": payload}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:
            fh.write("# config: " + " ".join(f"{k}={v}" for k, v in cfg.items()) + "\n")
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(payload.header)
            out.writerows([_cell(v) for v in row] for row in payload.rows)


BRACKET = ("lower", "upper", "lower_src", "upper_src")


def _ends(br) -> list:
    """A bracket's cells under BRACKET: both ends' values, then their sources."""
    return [br.lower.value, br.upper.value, br.lower.source, br.upper.source]


def _read_artifact(path: str) -> dict:
    """A JSON input: an artifact as emit writes it, or its bare result."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc["result"] if isinstance(doc, dict) and doc.keys() == {"config", "result"} else doc


def _opt_cfg(ns: argparse.Namespace) -> optimize.OptConfig:
    return optimize.OptConfig(restarts=ns.restarts, iters=ns.iters, seed=ns.seed)


# --- subcommand bodies -----------------------------------------------------


def cmd_enumerate(ns) -> int:
    if ns.set == "lambda":
        items = multiindex.enumerate_lambda(ns.m, ns.n)
    elif ns.set == "lambda_k":
        if ns.k is None:
            raise ValueError("--k is required for --set lambda_k")
        items = multiindex.enumerate_lambda_k(ns.m, ns.n, ns.k)
    else:
        items = multiindex.enumerate_j(ns.m, ns.n)

    def mult(item) -> str:
        alpha = item if ns.set != "j" else multiindex.tuple_to_alpha(item, ns.n)
        return str(multiindex.multiplicity(alpha))

    # a whole list, not a stream: a budget error must come before any output
    emit(ns, Table(("index", "exponents", "multiplicity"),
                   [[i, item, mult(item)] for i, item in enumerate(items)]))
    return 0


def cmd_poly_moebius(ns) -> int:
    emit(ns, polynomial.series_to_dict(polynomial.moebius_series(ns.a, ns.M)))
    return 0


def cmd_poly_random(ns) -> int:
    F = bohr_mod.random_series(ns.n, ns.M, ns.seed, ns.budget, p=ns.p)
    emit(ns, polynomial.series_to_dict(F))
    return 0


def cmd_poly_sign(ns) -> int:
    rng = np.random.default_rng(ns.seed)
    signs = {a: int(rng.choice([-1, 1])) for a in multiindex.enumerate_lambda(ns.m, ns.n)}
    emit(ns, polynomial.poly_to_dict(polynomial.sign_polynomial(ns.m, ns.n, signs)))
    return 0


def cmd_norm(ns) -> int:
    P = polynomial.poly_from_dict(_read_artifact(ns.poly))
    cfg = _opt_cfg(ns)
    if ns.majorant:
        if ns.q is None:
            raise ValueError("--q is required with --majorant")
        est = optimize.majorant_sup(P, ns.q, cfg)
    else:
        est = optimize.sup_norm(P, ns.p, cfg)
    emit(ns, {
        "value": est.value,
        "witness": [[w.real, w.imag] for w in np.asarray(est.witness)],
        "converged": bool(est.converged),
        "restarts": est.restarts,
        "provenance": "estimate (certified lower bound)",
    })
    return 0


def _bound_row(ns, value: float, regime: str = "", flags: tuple = (),
               prov: str = "closed-form") -> Table:
    """The artifact of one bound value, one object in JSON.  An input the
    kind does not take (or a --q left out of jsum) is null, an empty cell in
    CSV."""
    inputs = [getattr(ns, k, None) for k in "mnpq"]
    return Table(("m", "n", "p", "q", "value", "regime", "flags", "provenance"),
                 [inputs + [value, regime, flags, prov]], one=True)


def cmd_bound_jsum(ns) -> int:
    e = bounds.ExponentPair(ns.p, ns.q) if ns.q is not None else None
    value = bounds.j_sum(ns.m, ns.n, e, beta=ns.beta_override)
    emit(ns, _bound_row(ns, value, prov="generating function"))
    return 0


def cmd_bound_chiupper(ns) -> int:
    [(log_up, source)] = bounds.log_chi_uppers([ns.m], ns.n, bounds.ExponentPair(ns.p, ns.q))
    if (value := bounds.chi_upper_ends(log_up, ns.m)[0]) == math.inf:
        raise ValueError(f"chi_upper does not fit in a float: ln chi_upper = {log_up!r}")
    emit(ns, _bound_row(ns, value, prov=source))
    return 0


def cmd_bound_envelope(ns) -> int:
    rep = bounds.envelope_constant(ns.m, ns.n, bounds.ExponentPair(ns.p, ns.q))
    emit(ns, _bound_row(ns, rep.value, "+".join(rep.regimes), ("no-constant",)))
    return 0


def cmd_bound_region(ns) -> int:
    rep = bounds.region_classify(ns.p, ns.q)
    emit(ns, {"region": rep.tag, "rate": rep.rate_label,
              "flags": list(rep.flags) + ["no-constant"]})
    return 0


def cmd_bound_rate(ns) -> int:
    value = bounds.rate(ns.p, ns.q, ns.n)
    emit(ns, _bound_row(ns, value, bounds.region_classify(ns.p, ns.q).tag, ("no-constant",)))
    return 0


def cmd_witness_search(ns) -> int:
    signs, est = witness.sign_search(ns.m, ns.n, ns.p, ns.budget, ns.seed, _opt_cfg(ns))
    emit(ns, {
        "signs": [{"alpha": list(a), "sign": s} for a, s in sorted(signs.items())],
        "norm": est.value,
        "provenance": "estimate (certified lower bound)",
    })
    return 0


def cmd_witness_brute(ns) -> int:
    bc = witness.brute_chi(ns.m, ns.n, bounds.ExponentPair(ns.p, ns.q), samples=ns.samples,
                           seed=ns.seed, cfg=_opt_cfg(ns))
    emit(ns, {"raw": bc.raw, "deflated": bc.deflated, "provenance": "estimate-based"})
    return 0


def cmd_witness_bracket(ns) -> int:
    br = witness.chi_bracket(ns.m, ns.n, bounds.ExponentPair(ns.p, ns.q), _opt_cfg(ns),
                             sign_budget=ns.budget, samples=ns.samples)
    emit(ns, Table((*BRACKET, "flags"),
                   [_ends(br) + [["estimate-based"] if br.lower.estimate else []]], one=True))
    return 0


def cmd_bohr_bracket(ns) -> int:
    br = bohr_mod.k_bracket(ns.n, bounds.ExponentPair(ns.p, ns.q), ns.mmax, _opt_cfg(ns),
                            sign_budget=ns.budget, samples=ns.samples)
    emit(ns, Table((*BRACKET, "m"), [_ends(br) + [br.m]], one=True))
    return 0


def cmd_bohr_oned(ns) -> int:
    emit(ns, Table(BRACKET, [_ends(bohr_mod.bohr_1d_bracket(ns.tol, seed=ns.seed))], one=True))
    return 0


def cmd_bohr_wiener(ns) -> int:
    F = polynomial.series_from_dict(_read_artifact(ns.series))
    rep = bohr_mod.wiener_check(F, ns.p, ns.slack, _opt_cfg(ns))
    emit(ns, {
        "all_pass": rep.all_pass,
        "a0_mod": rep.a0_mod,
        "rows": [{"m": r.m, "norm_est": r.norm_est, "bound": r.bound,
                  "ok": r.ok} for r in rep.rows],
    })
    return 0


def cmd_bohr_table(ns) -> int:
    """One K bracket per n: its ends, the region tag, rate(n) (None for
    n < 2) and a provenance, "estimate-based" when either end is an
    estimate, else "closed-form"."""
    e = bounds.ExponentPair(ns.p, ns.q)
    cfg, tag = _opt_cfg(ns), bounds.region_classify(ns.p, ns.q).tag
    rows = []
    for n in ns.n_grid:
        br = bohr_mod.k_bracket(n, e, ns.mmax, cfg, sign_budget=ns.budget, samples=ns.samples)
        rows.append([n, *_ends(br), tag, bounds.rate(ns.p, ns.q, n) if n >= 2 else None,
                     "estimate-based" if br.lower.estimate or br.upper.estimate
                     else "closed-form"])
    emit(ns, Table(("n", *BRACKET, "region", "rate", "provenance"), rows))
    return 0


def cmd_sweep(ns) -> int:
    """One chi bracket per (m, n) cell."""
    e = bounds.ExponentPair(ns.p, ns.q)
    cfg = _opt_cfg(ns)
    rows = [[m, n, ns.p, ns.q, *_ends(witness.chi_bracket(m, n, e, cfg, sign_budget=ns.budget,
                                                          samples=ns.samples))]
            for m in ns.m_grid for n in ns.n_grid]
    emit(ns, Table(("m", "n", "p", "q", *BRACKET), rows))
    return 0


def cmd_selftest(ns) -> int:
    """Fast deterministic battery touching every module.  Each check's wall
    time goes to stderr, so the report on stdout stays byte-identical."""
    scfg = optimize.OptConfig(restarts=8, iters=100)

    def routes_agree():
        a = bounds.j_sum(4, 5, beta=1.0, method="naive")
        b = bounds.j_sum(4, 5, beta=1.0)
        return abs(a - b) <= 1e-12 * abs(b)

    def sup_z1z2():
        P = polynomial.HomPoly(2, 2, {(1, 1): 1.0})
        return abs(optimize.sup_norm(P, 2.0, optimize.OptConfig(restarts=8, seed=0)).value
                   - 0.5) <= 1e-9

    def automorphism():
        F = polynomial.moebius_series(0.5, 60)
        return 1.0 - 1e-6 <= optimize.bohr_sum(F, 1.0 / (1.0 + 2 * 0.5), 2.0).value <= 1.0 + 1e-12

    def screen_keeps_count():
        # 512 series at r = 0.9, where some fail: the dense count on every row
        coeffs = bohr_mod._random_coeffs(np.random.default_rng(0), 512, 12)
        lhs = np.abs(coeffs) @ 0.9 ** np.arange(13)
        dense = int((lhs > bohr_mod._circle_sup(coeffs)).sum())
        return 0 < dense == bohr_mod._random_series_failures(0.9, 512, 12, seed=0)

    def k1_bracket():
        km = bohr_mod.k_m_bracket(1, 2, bounds.ExponentPair(2.0, 2.0), scfg,
                                  sign_budget=200, samples=1000)
        return km.lower.value <= 1.0 <= km.upper.value + 1e-9

    checks = [
        ("multinomial identity sum(m!/alpha!) = n^m",
         lambda: sum(multiindex.multiplicity(a) for a in multiindex.enumerate_lambda(4, 3))
         == 3**4),
        ("index set cardinality",
         lambda: sum(1 for _ in multiindex.enumerate_lambda(5, 4)) == multiindex.lambda_card(5, 4)),
        ("tuple/alpha roundtrip",
         lambda: multiindex.tuple_to_alpha(multiindex.alpha_to_tuple((2, 0, 1)), 3) == (2, 0, 1)),
        ("multiplicity-sum routes agree", routes_agree),
        ("region (inf,inf) -> II", lambda: bounds.region_classify(math.inf, math.inf).tag == "II"),
        ("region q=1 -> Q1", lambda: bounds.region_classify(2, 1).tag == "Q1"),
        ("region (4,4/3) -> I", lambda: bounds.region_classify(4, 4 / 3).tag == "I"),
        ("sup |z1 z2| on l_2 ball = 1/2", sup_z1z2),
        ("sup |z1^3| = 1", lambda: abs(optimize.sup_norm(
            polynomial.HomPoly(3, 3, {(3, 0, 0): 1.0}), math.inf).value - 1.0) <= 1e-12),
        ("disk automorphism Bohr sum = 1 at r = 1/(1+2a)", automorphism),
        ("Parseval screen keeps the random-series failure count", screen_keeps_count),
        ("sign search deterministic", lambda: witness.sign_search(2, 2, math.inf, 200, 7, scfg)[0]
         == witness.sign_search(2, 2, math.inf, 200, 7, scfg)[0]),
        ("K_1(p=q) bracket contains 1", k1_bracket),
    ]
    lines, ok = [], True
    for name, check in checks:
        t0 = time.perf_counter()
        passed = bool(check())
        sys.stderr.write(f"{time.perf_counter() - t0:8.3f} s  {name}\n")
        lines.append(("ok   " if passed else "FAIL ") + name)
        ok &= passed
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(("selftest: all %d checks passed\n" % len(checks)) if ok
                     else "selftest: FAILURES\n")
    return 0 if ok else 2


# --- parser ----------------------------------------------------------------


def _common(sp, flags: dict | None = None) -> None:
    """Each of flags (a name without its dashes, mapped to its add_argument
    keywords), then --out.  A kind that writes CSV lists "format" among its
    flags; every other writes JSON."""
    sp.set_defaults(format="json")
    for flag, spec in (flags or {}).items():
        sp.add_argument("--" + flag, **spec)
    sp.add_argument("--out", default=None)


def _kinds(sub, cmd: str, flags: dict, kinds) -> dict:
    """cmd with one sub-parser per kind, which offers only the flags its
    function reads: kinds holds (name, function, those flags), each declared
    as the flags table declares it.  Returns the sub-parsers by kind.  No
    abbreviations, so a flag a kind lacks is not read as a longer one it
    has ("bohr table --n" is not --n-grid)."""
    per_kind = sub.add_parser(cmd, allow_abbrev=False).add_subparsers(dest="kind", required=True)
    parsers = {}
    for name, func, names in kinds:
        sp = parsers[name] = per_kind.add_parser(name, allow_abbrev=False)
        _common(sp, {flag: flags[flag] for flag in names.split()})
        sp.set_defaults(func=func)
    return parsers


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; the --seed default (None) is
    resolved from BOHRLAB_SEED each time run parses.  No parser takes
    abbreviations: "sweep --n" is not read as --n-grid, nor "norm --maj" as
    --majorant."""
    ap = argparse.ArgumentParser(prog="bohrlab", allow_abbrev=False)
    sub = ap.add_subparsers(dest="cmd", required=True)
    exponent = dict(type=parse_exponent, required=True)
    fmt = dict(choices=("csv", "json"), default="json")  # only where CSV exists
    opt = {"seed": dict(type=int, default=None),  # the flags _opt_cfg reads
           "restarts": dict(type=int, default=32),
           "iters": dict(type=int, default=200)}

    sp = sub.add_parser("enumerate", allow_abbrev=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=("lambda", "j", "lambda_k"), default="lambda")
    sp.add_argument("--k", type=int, default=None)
    _common(sp, {"format": fmt})
    sp.set_defaults(func=cmd_enumerate)

    _kinds(sub, "poly", {
        "n": dict(type=int, default=1),
        "m": dict(type=int, default=1),
        "M": dict(type=int, default=4),
        "a": dict(type=float, default=0.5),
        "p": dict(type=parse_exponent, default=2.0),
        "budget": dict(type=int, default=10**6),
        "seed": opt["seed"],
    }, [
        ("moebius", cmd_poly_moebius, "a M"),
        ("random", cmd_poly_random, "n M p budget seed"),
        ("sign", cmd_poly_sign, "m n seed"),
    ])

    sp = sub.add_parser("norm", allow_abbrev=False)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--p", type=parse_exponent, default=2.0)
    sp.add_argument("--q", type=parse_exponent, default=None)
    sp.add_argument("--majorant", action="store_true")
    _common(sp, opt)
    sp.set_defaults(func=cmd_norm)

    bound = _kinds(sub, "bound", {
        "m": dict(type=int, default=2),
        "n": dict(type=int, required=True),
        "p": exponent,
        "q": exponent,
        "beta-override": dict(type=float, default=None),
        "format": fmt,
    }, [
        ("jsum", cmd_bound_jsum, "m n p beta-override format"),
        ("chiupper", cmd_bound_chiupper, "m n p q format"),
        ("envelope", cmd_bound_envelope, "m n p q format"),
        ("region", cmd_bound_region, "p q"),
        ("rate", cmd_bound_rate, "n p q format"),
    ])
    bound["jsum"].add_argument("--q", type=parse_exponent, default=None)  # or --beta-override

    _kinds(sub, "witness", {
        "m": dict(type=int, required=True),
        "n": dict(type=int, required=True),
        "p": exponent,
        "q": exponent,
        "budget": dict(type=int, default=2000),
        "samples": dict(type=int, default=1000),
        **opt,
    }, [
        ("search", cmd_witness_search, "m n p budget seed restarts iters"),
        ("brute", cmd_witness_brute, "m n p q samples seed restarts iters"),
        ("bracket", cmd_witness_bracket, "m n p q budget samples seed restarts iters"),
    ])

    _kinds(sub, "bohr", {
        "n": dict(type=int, default=2),
        "n-grid": dict(type=parse_grid, default=[2, 4, 8]),
        "p": dict(type=parse_exponent, default=math.inf),
        "q": dict(type=parse_exponent, default=math.inf),
        "mmax": dict(type=int, default=3),
        "tol": dict(type=float, default=1e-3),
        "series": dict(required=True),
        "slack": dict(type=float, default=1.0),
        "budget": dict(type=int, default=2000),
        "samples": dict(type=int, default=1000),
        "format": fmt,
        **opt,
    }, [
        ("bracket", cmd_bohr_bracket, "n p q mmax budget samples seed restarts iters"),
        ("oned", cmd_bohr_oned, "tol seed"),
        ("wiener", cmd_bohr_wiener, "series p slack seed restarts iters"),
        ("table", cmd_bohr_table, "n-grid p q mmax budget samples seed restarts iters format"),
    ])

    sp = sub.add_parser("sweep", allow_abbrev=False)
    sp.add_argument("--m-grid", type=parse_grid, default=[1, 2, 3])
    sp.add_argument("--n-grid", type=parse_grid, default=[2, 4, 8])
    sp.add_argument("--p", type=parse_exponent, required=True)
    sp.add_argument("--q", type=parse_exponent, required=True)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=1000)
    _common(sp, {**opt, "format": {**fmt, "default": "csv"}})
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("selftest", allow_abbrev=False)
    sp.set_defaults(func=cmd_selftest)

    return ap


def _apply_config_file(argv: list[str]) -> list[str]:
    """Inline key=value pairs from --config FILE as flags placed before any
    explicit flags (so the command line wins on conflict)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file argument")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    extra: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            extra += ["--" + key.strip(), val.strip()]
    # positionals (subcommand selectors) come first in rest
    head = next((i for i, arg in enumerate(rest) if arg.startswith("-")), len(rest))
    return rest[:head] + extra + rest[head:]


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else 2
        if vars(ns).get("seed", 0) is None:  # read per run: the parser is cached
            ns.seed = default_seed()
        return ns.func(ns)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
