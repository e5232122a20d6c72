"""Command-line front end.

Subcommands: enumerate, poly, norm, bound, witness, bohr, sweep, selftest.
Exit status 0 on success, 2 on validation/usage errors, 3 on budget
exhaustion.  Exponents are accepted as exact rationals ("4/3") or the
literal "inf".  Outputs embed their run configuration so identical configs
give byte-identical artifacts; the seed defaults to the BOHRLAB_SEED
environment variable.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import bohr as bohr_mod
from . import bounds, multiindex, optimize, polynomial, witness
from .errors import BudgetExceededError


def parse_exponent(s: str) -> float:
    if s.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        v = float(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad exponent {s!r}") from exc
    if v < 1:
        raise argparse.ArgumentTypeError(f"exponent must be >= 1, got {s}")
    return v


def parse_grid(s: str) -> list[int]:
    try:
        return [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer grid {s!r}") from exc


def fnum(x: float) -> str:
    return f"{x:.17g}"


def default_seed() -> int:
    return int(os.environ.get("BOHRLAB_SEED", "0"))


def config_line(ns: argparse.Namespace) -> dict:
    skip = {"func", "out"}
    cfg = {}
    for k, v in sorted(vars(ns).items()):
        if k in skip:
            continue
        cfg[k] = str(v)
    return cfg


def emit(ns: argparse.Namespace, payload) -> None:
    """Write the artifact (config header included) to --out or stdout."""
    buf = io.StringIO()
    fmt = getattr(ns, "format", "json")
    cfg = config_line(ns)
    if fmt == "json":
        buf.write(json.dumps({"config": cfg, "result": payload},
                             sort_keys=True, indent=2))
        buf.write("\n")
    else:
        header, rows = payload
        buf.write("# config: " + " ".join(f"{k}={v}" for k, v in cfg.items()) + "\n")
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(row) + "\n")
    text = buf.getvalue()
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _opt_cfg(ns: argparse.Namespace) -> optimize.OptConfig:
    return optimize.OptConfig(
        restarts=getattr(ns, "restarts", 32),
        iters=getattr(ns, "iters", 200),
        seed=getattr(ns, "seed", 0),
    )


def _search_cfg(ns: argparse.Namespace) -> witness.SearchConfig:
    return witness.SearchConfig(seed=getattr(ns, "seed", 0), opt=_opt_cfg(ns))


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
    rows = []
    recs = []
    for i, item in enumerate(items):
        alpha = item if ns.set != "j" else multiindex.tuple_to_alpha(item, ns.n)
        mult = multiindex.multiplicity(alpha)
        rows.append([str(i), ";".join(str(v) for v in item), str(mult)])
        recs.append({"index": i, "exponents": list(item), "multiplicity": str(mult)})
    if ns.format == "csv":
        emit(ns, (["index", "exponents", "multiplicity"], rows))
    else:
        emit(ns, recs)
    return 0


def cmd_poly(ns) -> int:
    if ns.kind == "moebius":
        F = polynomial.moebius_series(ns.a, ns.M)
        emit(ns, polynomial.series_to_dict(F))
    elif ns.kind == "random":
        F = polynomial.random_series(ns.n, ns.M, ns.seed, ns.budget, p=ns.p)
        emit(ns, polynomial.series_to_dict(F))
    else:  # sign
        rng = np.random.default_rng(ns.seed)
        signs = {a: int(rng.choice([-1, 1]))
                 for a in multiindex.enumerate_lambda(ns.m, ns.n)}
        emit(ns, polynomial.poly_to_dict(polynomial.sign_polynomial(ns.m, ns.n, signs)))
    return 0


def cmd_norm(ns) -> int:
    with open(ns.poly) as fh:
        P = polynomial.poly_from_dict(json.load(fh))
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


def cmd_bound(ns) -> int:
    e = bounds.ExponentPair(ns.p, ns.q) if ns.q is not None else None
    regime = ""
    flags: tuple = ()
    prov = "closed-form"
    if ns.kind == "jsum":
        value = bounds.j_sum(ns.m, ns.n, e, beta=ns.beta_override, method=ns.method)
        prov = "exact-sum"
    elif ns.kind == "chiupper":
        value = bounds.chi_upper_small_pq(ns.m, ns.n, e)
    elif ns.kind == "envelope":
        rep = bounds.envelope_constant(ns.m, ns.n, e)
        value, regime = rep.value, "+".join(rep.regimes)
        flags = ("no-constant",)
    elif ns.kind == "region":
        rep = bounds.region_classify(ns.p, ns.q)
        if (rep.n_exponent, rep.log_exponent) == (0.5, 0.5):
            rate_str = "sqrt(log n)/sqrt(n)"
        elif (rep.n_exponent, rep.log_exponent) == (0.0, 0.0):
            rate_str = "1"
        else:
            rate_str = f"log(n)^{rep.log_exponent:g}/n^{rep.n_exponent:g}"
        emit(ns, {"region": rep.tag, "rate": rate_str,
                  "flags": list(rep.flags) + ["no-constant"]})
        return 0
    elif ns.kind == "rate":
        if ns.n is None:
            raise ValueError("--n is required for rate")
        value = bounds.rate(ns.p, ns.q, ns.n)
        regime = bounds.region_classify(ns.p, ns.q).tag
        flags = ("no-constant",)
    else:  # bayart
        value = bounds.bayart_bound(ns.m, ns.n, ns.p)
        flags = ("no-constant",)
    if ns.format == "csv":
        row = [str(ns.m), str(ns.n), str(ns.p), str(ns.q), fnum(value),
               regime, "+".join(flags), prov]
        emit(ns, (["m", "n", "p", "q", "value", "regime", "flags", "provenance"], [row]))
    else:
        emit(ns, {"m": ns.m, "n": ns.n, "p": ns.p, "q": ns.q, "value": value,
                  "regime": regime, "flags": list(flags), "provenance": prov})
    return 0


def cmd_witness(ns) -> int:
    e = bounds.ExponentPair(ns.p, ns.q)
    cfg = _search_cfg(ns)
    if ns.kind == "search":
        signs, est = witness.sign_search(ns.m, ns.n, ns.p, ns.budget, ns.seed, cfg)
        emit(ns, {
            "signs": [{"alpha": list(a), "sign": s} for a, s in sorted(signs.items())],
            "norm": est.value,
            "provenance": "estimate (certified lower bound)",
        })
    elif ns.kind == "brute":
        bc = witness.brute_chi(ns.m, ns.n, e, samples=ns.samples, seed=ns.seed, cfg=cfg)
        emit(ns, {"raw": bc.raw, "deflated": bc.deflated,
                  "provenance": "estimate-based"})
    else:  # bracket
        br = witness.chi_bracket(ns.m, ns.n, e, cfg, sign_budget=ns.budget,
                                 samples=ns.samples)
        flags = ["estimate-based"] if "estimate-based" in br.lower_src else []
        emit(ns, {"lower": br.lower, "lower_src": br.lower_src,
                  "upper": br.upper, "upper_src": br.upper_src, "flags": flags})
    return 0


def cmd_bohr(ns) -> int:
    if ns.kind == "bracket":
        e = bounds.ExponentPair(ns.p, ns.q)
        br = bohr_mod.k_bracket(ns.n, e, ns.mmax, _search_cfg(ns),
                                sign_budget=ns.budget, samples=ns.samples)
        emit(ns, {"lower": br.lower, "upper": br.upper, "m": str(br.m),
                  "lower_src": br.lower_src, "upper_src": br.upper_src})
    elif ns.kind == "oned":
        br = bohr_mod.bohr_1d_bracket(ns.tol, _opt_cfg(ns), seed=ns.seed)
        emit(ns, {"lower": br.lower, "upper": br.upper,
                  "lower_src": br.lower_src, "upper_src": br.upper_src})
    elif ns.kind == "wiener":
        with open(ns.series) as fh:
            F = polynomial.series_from_dict(json.load(fh))
        rep = bohr_mod.wiener_check(F, ns.p, ns.slack, _opt_cfg(ns))
        emit(ns, {
            "all_pass": rep.all_pass,
            "a0_mod": rep.a0_mod,
            "rows": [{"m": r.m, "norm_est": r.norm_est, "bound": r.bound,
                      "ok": r.ok} for r in rep.rows],
        })
    else:  # table
        e = bounds.ExponentPair(ns.p, ns.q)
        rows = bohr_mod.k_table(ns.n_grid, e, ns.mmax, _search_cfg(ns),
                                sign_budget=ns.budget, samples=ns.samples)
        if ns.format == "csv":
            out = [[str(r["n"]), fnum(r["lower"]), fnum(r["upper"]),
                    r["region"], fnum(r["rate"]), r["provenance"]]
                   for r in rows]
            emit(ns, (["n", "lower", "upper", "region", "rate", "provenance"], out))
        else:
            emit(ns, rows)
    return 0


def cmd_sweep(ns) -> int:
    e = bounds.ExponentPair(ns.p, ns.q)
    cfg = _search_cfg(ns)
    rows = []
    for m in ns.m_grid:
        for n in ns.n_grid:
            br = witness.chi_bracket(m, n, e, cfg, sign_budget=ns.budget,
                                     samples=ns.samples)
            rows.append([str(m), str(n), str(ns.p), str(ns.q),
                         fnum(br.lower), fnum(br.upper),
                         br.lower_src, br.upper_src])
    emit(ns, (["m", "n", "p", "q", "lower", "upper",
               "lower_src", "upper_src"], rows))
    return 0


def cmd_selftest(ns) -> int:
    """Fast deterministic battery touching every module."""
    checks: list[tuple[str, bool]] = []

    total = sum(multiindex.multiplicity(a) for a in multiindex.enumerate_lambda(4, 3))
    checks.append(("multinomial identity sum(m!/alpha!) = n^m", total == 3**4))
    checks.append(("index set cardinality", sum(1 for _ in multiindex.enumerate_lambda(5, 4))
                   == multiindex.lambda_card(5, 4)))
    alpha = (2, 0, 1)
    checks.append(("tuple/alpha roundtrip",
                   multiindex.tuple_to_alpha(multiindex.alpha_to_tuple(alpha), 3) == alpha))

    a = bounds.j_sum(4, 5, beta=1.0, method="naive")
    b = bounds.j_sum(4, 5, beta=1.0, method="partition")
    checks.append(("multiplicity-sum routes agree", abs(a - b) <= 1e-12 * abs(b)))

    checks.append(("region (inf,inf) -> II",
                   bounds.region_classify(math.inf, math.inf).tag == "II"))
    checks.append(("region q=1 -> Q1", bounds.region_classify(2, 1).tag == "Q1"))
    checks.append(("region (4,4/3) -> I", bounds.region_classify(4, 4 / 3).tag == "I"))

    P = polynomial.HomPoly(2, 2, {(1, 1): 1.0})
    est = optimize.sup_norm(P, 2.0, optimize.OptConfig(restarts=8, seed=0))
    checks.append(("sup |z1 z2| on l_2 ball = 1/2", abs(est.value - 0.5) <= 1e-9))
    Q = polynomial.HomPoly(3, 3, {(3, 0, 0): 1.0})
    checks.append(("sup |z1^3| = 1",
                   abs(optimize.sup_norm(Q, math.inf).value - 1.0) <= 1e-12))

    F = polynomial.moebius_series(0.5, 60)
    r_eq = 1.0 / (1.0 + 2 * 0.5)
    bs = optimize.bohr_sum(F, r_eq, 2.0).value
    checks.append(("disk automorphism Bohr sum = 1 at r = 1/(1+2a)",
                   1.0 - 1e-6 <= bs <= 1.0 + 1e-12))

    scfg = witness.SearchConfig(seed=0, opt=optimize.OptConfig(restarts=8, iters=100))
    s1, _ = witness.sign_search(2, 2, math.inf, 200, 7, scfg)
    s2, _ = witness.sign_search(2, 2, math.inf, 200, 7, scfg)
    checks.append(("sign search deterministic", s1 == s2))

    km = bohr_mod.k_m_bracket(1, 2, bounds.ExponentPair(2.0, 2.0), scfg,
                              sign_budget=200, samples=1000)
    checks.append(("K_1(p=q) bracket contains 1", km.lower <= 1.0 <= km.upper + 1e-9))

    ok = True
    lines = []
    for name, passed in checks:
        ok &= passed
        lines.append(("ok   " if passed else "FAIL ") + name)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(("selftest: all %d checks passed\n" % len(checks)) if ok
                     else "selftest: FAILURES\n")
    return 0 if ok else 2


# --- parser ----------------------------------------------------------------


def _common(sp, seed=True, fmt=True):
    if seed:
        sp.add_argument("--seed", type=int, default=default_seed())
    if fmt:
        sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.add_argument("--out", default=None)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--iters", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bohrlab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("enumerate")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=("lambda", "j", "lambda_k"), default="lambda")
    sp.add_argument("--k", type=int, default=None)
    _common(sp, seed=False)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("poly")
    sp.add_argument("kind", choices=("random", "moebius", "sign"))
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--M", type=int, default=4)
    sp.add_argument("--a", type=float, default=0.5)
    sp.add_argument("--p", type=parse_exponent, default=2.0)
    sp.add_argument("--budget", type=int, default=10**6)
    _common(sp)
    sp.set_defaults(func=cmd_poly)

    sp = sub.add_parser("norm")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--p", type=parse_exponent, default=2.0)
    sp.add_argument("--q", type=parse_exponent, default=None)
    sp.add_argument("--majorant", action="store_true")
    _common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("bound")
    sp.add_argument("kind", choices=("jsum", "chiupper", "envelope",
                                     "region", "rate", "bayart"))
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=parse_exponent, required=True)
    sp.add_argument("--q", type=parse_exponent, default=None)
    sp.add_argument("--beta-override", type=float, default=None)
    sp.add_argument("--method", choices=("partition", "naive"), default="partition")
    _common(sp, seed=False)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("witness")
    sp.add_argument("kind", choices=("search", "bracket", "brute"))
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=parse_exponent, required=True)
    sp.add_argument("--q", type=parse_exponent, required=True)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=1000)
    _common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("bohr")
    sp.add_argument("kind", choices=("bracket", "oned", "wiener", "table"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--n-grid", type=parse_grid, default=[2, 4, 8])
    sp.add_argument("--p", type=parse_exponent, default=math.inf)
    sp.add_argument("--q", type=parse_exponent, default=math.inf)
    sp.add_argument("--mmax", type=int, default=3)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--series", default=None)
    sp.add_argument("--slack", type=float, default=1.0)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=1000)
    _common(sp)
    sp.set_defaults(func=cmd_bohr)

    sp = sub.add_parser("sweep")
    sp.add_argument("--m-grid", type=parse_grid, default=[1, 2, 3])
    sp.add_argument("--n-grid", type=parse_grid, default=[2, 4, 8])
    sp.add_argument("--p", type=parse_exponent, required=True)
    sp.add_argument("--q", type=parse_exponent, required=True)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=1000)
    _common(sp)
    sp.set_defaults(func=cmd_sweep)
    sp.set_defaults(format="csv")

    sp = sub.add_parser("selftest")
    _common(sp, fmt=False)
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
    head = 0
    while head < len(rest) and not rest[head].startswith("-"):
        head += 1
    return rest[:head] + extra + rest[head:]


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        ap = build_parser()
        try:
            ns = ap.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else 2
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
