"""The benchmark's three workloads.

Each workload turns a seed into a fixed task list.  A task is one call into
bohrlab's public API (or its CLI entry point ``bohrlab.cli.run``) followed,
outside the timed region, by the output checks.  The library receives only
the inputs generated here and the seed flag.

- ``sweep_chi``: ``bohrlab sweep`` over m in 1..4, n in {2, 4, 8, 16} at
  (p, q) = (2, 3/2).  Witness- and kernel-heavy (index sets up to 3876
  terms); exercises kernel and witness changes.
- ``norm_suite``: a Wiener-type suite of small random truncated series
  (n <= 3, degree <= 4) through all four norm estimators.  Per-call and
  ascent-driver overhead dominates; exercises the ascent driver and the
  estimator front ends.
- ``radius_bounds``: ``bohrlab bohr table --budget 0`` with n >= 64 plus
  envelope constants and the one-variable radius.  Closed forms only;
  exercises ``bounds`` and bypasses kernel, optimizer and witnesses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Traced functions are looked up on the package at call time (bohrlab.x, not
# a name imported here), so the tracer's rebinding reaches these calls too.
import bohrlab
from bohrlab import HomPoly, OptConfig, TruncatedSeries, cli

# Relative slack on comparisons that are exact in real arithmetic.
REL_EPS = 1e-12


@dataclass
class Outcome:
    """Checked result of one task."""

    rows: list[str] = field(default_factory=list)  # digest input, config excluded
    widths: list[float] = field(default_factory=list)  # ln(upper / lower) per bracket
    log_norms: list[float] = field(default_factory=list)  # ln(estimate), raw inputs
    errors: list[str] = field(default_factory=list)  # failed output checks


@dataclass
class Task:
    name: str
    call: Callable[[], object]  # timed
    check: Callable[[object], Outcome]  # untimed


@dataclass
class Workload:
    tasks: list[Task]
    warmup: Task


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _bracket(out: Outcome, lower: float, upper: float, what: str) -> None:
    """Record the width of [lower, upper] and check its order."""
    if not (0 < lower <= upper and math.isfinite(upper)):
        out.errors.append(f"{what}: bad bracket [{lower}, {upper}]")
        return
    out.widths.append(math.log(upper / lower))


def _run_cli(argv: list[str]) -> None:
    code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"bohrlab {' '.join(argv)} exited with {code}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """(column header, split data rows, raw data lines); the '# config:'
    header is dropped, so the unused --workers flag it carries cannot
    affect the digest."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config:"):
        raise ValueError(f"{path.name}: missing config header")
    data = lines[2:]
    return lines[1].split(","), [ln.split(",") for ln in data], data


# --- sweep_chi --------------------------------------------------------------

SWEEP = {
    "full": dict(m_grid="1,2,3,4", n_grid="2,4,8,16", budget=200, restarts=4, iters=5),
    "smoke": dict(m_grid="1,2", n_grid="2,4", budget=50, restarts=4, iters=5),
}


def sweep_chi(seed: int, out_dir: Path, size: str = "full") -> Workload:
    """One ``bohrlab sweep`` call per (m, n) cell of the grid.  Every cell
    uses the same search settings whatever the grid, so the cells' rows are
    the rows of one sweep over the whole grid; one call per cell lets the
    reference loop run between cells (see run.py)."""
    s = SWEEP[size]

    def task(m: str, n: str) -> Task:
        csv = out_dir / f"sweep_chi_{m}_{n}.csv"
        argv = ["sweep", "--m-grid", m, "--n-grid", n, "--p", "2", "--q", "3/2",
                "--seed", str(seed), "--budget", str(s["budget"]), "--samples", "1000",
                "--restarts", str(s["restarts"]), "--iters", str(s["iters"]),
                "--out", str(csv)]

        def check(_) -> Outcome:
            out = Outcome()
            header, rows, raw = _read_csv(csv)
            col = {h: i for i, h in enumerate(header)}
            for r in rows:
                _bracket(out, float(r[col["lower"]]), float(r[col["upper"]]),
                         f"chi({r[col['m']]}, {r[col['n']]})")
            out.rows = raw
            return out

        return Task(f"sweep m={m} n={n}", lambda: _run_cli(argv), check)

    tasks = [task(m, n) for m in s["m_grid"].split(",") for n in s["n_grid"].split(",")]
    return Workload(tasks, task("1", "2"))


# --- norm_suite -------------------------------------------------------------

# Normalization uses random_series' own settings (48 restarts, 300 iterations,
# 1% margin): the sup estimate is a lower bound, and a weaker normalization
# leaves series whose re-estimated sup exceeds 1, which wiener_check rejects.
NORM = {
    "full": dict(series=96, restarts=8, iters=80, norm_restarts=48, norm_iters=300),
    "smoke": dict(series=6, restarts=4, iters=20, norm_restarts=8, norm_iters=80),
}
NORM_MARGIN = 1e-2
BOHR_R = 0.3
MOEBIUS_A = (0.4, 0.7)


@dataclass
class SeriesInput:
    """Coefficients of one truncated series; the HomPoly / TruncatedSeries
    objects are built inside each timed call, so no pass reuses the
    coefficient tables an earlier pass cached on them."""

    n: int
    a0: complex
    parts: list[dict]  # degree k -> {alpha: coefficient}, k = 1..M

    def build(self, scale: float = 1.0) -> TruncatedSeries:
        parts = [HomPoly(self.n, k, {a: c / scale for a, c in part.items()})
                 for k, part in enumerate(self.parts, start=1)]
        return TruncatedSeries(self.n, self.a0 / scale, parts)

    def coef_sums(self) -> list[float]:
        return [math.fsum(abs(c) for c in part.values()) for part in self.parts]


def _gaussian_series(rng: np.random.Generator, n: int, M: int) -> SeriesInput:
    def draw(size: int) -> np.ndarray:
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)

    a0 = complex(draw(1)[0])
    parts = []
    for k in range(1, M + 1):
        alphas = list(bohrlab.enumerate_lambda(k, n))
        parts.append(dict(zip(alphas, (complex(c) for c in draw(len(alphas))))))
    return SeriesInput(n, a0, parts)


def _norm_task(i: int, F: SeriesInput, p: float, norm_cfg: OptConfig,
               cfg: OptConfig) -> Task:
    """Normalize F by its estimated sup, check the Wiener inequality on the
    result, and estimate the Bohr sum and the top part's majorant sup.

    Every estimate is the objective at a point of the ball, so it is at
    most the coefficient-modulus sum: that sum is the closed-form upper end
    of the bracket whose width the task reports."""

    def call():
        raw = F.build()
        sup = bohrlab.series_sup(raw, p, norm_cfg)
        s = sup.value * (1.0 + NORM_MARGIN)
        rep = bohrlab.wiener_check(F.build(s), p, 1.0, cfg)
        bs = bohrlab.bohr_sum(raw, BOHR_R, 2.0, cfg)
        maj = bohrlab.majorant_sup(raw.parts[-1], 2.0, cfg)
        return sup, s, rep, bs, maj

    def check(res) -> Outcome:
        sup, s, rep, bs, maj = res
        out = Outcome()
        if not rep.all_pass:
            out.errors.append(f"series {i}: Wiener inequality fails")
        sums = F.coef_sums()
        pairs = [("series_sup", sup.value, abs(F.a0) + math.fsum(sums))]
        pairs += [(f"part {r.m}", r.norm_est * s, cs) for r, cs in zip(rep.rows, sums)]
        pairs.append(("bohr_sum", bs.value, abs(F.a0) + math.fsum(
            BOHR_R**k * cs for k, cs in enumerate(sums, start=1))))
        pairs.append(("majorant_sup", maj.value, sums[-1]))
        for what, est, upper in pairs:
            if est > upper * (1 + REL_EPS):
                out.errors.append(f"series {i} {what}: estimate {est} above bound {upper}")
            _bracket(out, est, max(est, upper), f"series {i} {what}")
            out.log_norms.append(math.log(est))
        out.rows = [f"{i},{p},{what},{_fmt(est)}" for what, est, _ in pairs]
        return out

    return Task(f"series {i} (n={F.n}, M={len(F.parts)}, p={p})", call, check)


def _moebius_task(a: float, cfg: OptConfig) -> Task:
    def check(rep) -> Outcome:
        out = Outcome(rows=[f"moebius {a},{r.m},{_fmt(r.norm_est)}" for r in rep.rows])
        if abs(rep.rows[0].norm_est - (1 - a * a)) > 1e-9:
            out.errors.append(f"moebius {a}: degree-1 estimate {rep.rows[0].norm_est} "
                              f"!= 1 - a^2 = {1 - a * a}")
        return out

    # the degree-40 truncation tail lifts the sup about 1e-6 above 1
    def call():
        return bohrlab.wiener_check(bohrlab.moebius_series(a, 40), 2.0, 1.0, cfg,
                                    norm_tol=1e-5)

    return Task(f"moebius {a}", call, check)


def norm_suite(seed: int, out_dir: Path, size: str = "full") -> Workload:
    s = NORM[size]
    cfg = OptConfig(restarts=s["restarts"], iters=s["iters"], seed=seed)
    norm_cfg = OptConfig(restarts=s["norm_restarts"], iters=s["norm_iters"], seed=seed)
    rng = np.random.default_rng(seed)
    tasks = []
    # every (p, n, degree) shape equally often, so the suite's make-up does
    # not vary with the seed
    for i in range(s["series"]):
        p = 2.0 if i % 2 == 0 else math.inf
        n = 1 + i // 2 % 3
        M = 1 + i // 6 % 4
        tasks.append(_norm_task(i, _gaussian_series(rng, n, M), p, norm_cfg, cfg))
    tasks += [_moebius_task(a, cfg) for a in MOEBIUS_A]
    warm = _norm_task(-1, _gaussian_series(np.random.default_rng(seed + 1), 2, 2), 2.0,
                      norm_cfg, cfg)
    return Workload(tasks, warm)


# --- radius_bounds ----------------------------------------------------------

RADIUS = {
    "full": dict(dims=(64, 256, 1024), mmax=4),
    "smoke": dict(dims=(64,), mmax=2),
}
# Two exponent pairs with 1 < q <= p <= 2, where the small-exponent lemma and
# the envelope constants apply.
PAIRS = (("2", "4/3"), ("3/2", "5/4"))
# The seed moves each dimension up by less than this; the closed forms do
# not depend on the seed otherwise, and small moves keep the bracket widths
# comparable across seeds.
DIM_JITTER = 16


def radius_bounds(seed: int, out_dir: Path, size: str = "full") -> Workload:
    s = RADIUS[size]
    rng = np.random.default_rng(seed)
    dims = [d + int(rng.integers(DIM_JITTER)) for d in s["dims"]]
    n_grid = ",".join(map(str, dims))
    mmax = s["mmax"]
    tasks = []

    def table_task(p: str, q: str, grid: str, mm: int) -> Task:
        csv = out_dir / f"table_{p.replace('/', '_')}_{q.replace('/', '_')}.csv"

        def check(_) -> Outcome:
            out = Outcome()
            header, rows, raw = _read_csv(csv)
            col = {h: i for i, h in enumerate(header)}
            for r in rows:
                lo, up = float(r[col["lower"]]), float(r[col["upper"]])
                _bracket(out, lo, up, f"K(n={r[col['n']]}, p={p}, q={q})")
                if lo > 1 / 3 + REL_EPS:
                    out.errors.append(f"K lower endpoint {lo} above 1/3")
            out.rows = [f"{p},{q},{ln}" for ln in raw]
            return out

        return Task(f"bohr table p={p} q={q}",
                    lambda: _run_cli(["bohr", "table", "--n-grid", grid, "--p", p, "--q", q,
                                      "--mmax", str(mm), "--budget", "0", "--seed", str(seed),
                                      "--format", "csv", "--out", str(csv)]),
                    check)

    def envelope_task(p: str, q: str) -> Task:
        csvs = {(m, n): out_dir / f"envelope_{m}_{n}.csv"
                for m in range(1, mmax + 1) for n in dims}

        def call():
            for (m, n), path in csvs.items():
                _run_cli(["bound", "envelope", "--m", str(m), "--n", str(n), "--p", p,
                          "--q", q, "--format", "csv", "--out", str(path)])

        def check(_) -> Outcome:
            out = Outcome()
            for path in csvs.values():
                header, rows, raw = _read_csv(path)
                value = float(rows[0][header.index("value")])
                if not (value > 0 and math.isfinite(value)):
                    out.errors.append(f"{path.name}: envelope constant {value}")
                out.rows += [f"{p},{q},{ln}" for ln in raw]
            return out

        return Task(f"envelope p={p} q={q}", call, check)

    for p, q in PAIRS:
        tasks += [table_task(p, q, n_grid, mmax), envelope_task(p, q)]

    oned = out_dir / "oned.json"

    def oned_check(_) -> Outcome:
        res = json.loads(oned.read_text())["result"]
        out = Outcome(rows=[json.dumps(res, sort_keys=True)])
        _bracket(out, res["lower"], res["upper"], "bohr_1d_bracket")
        if not res["lower"] <= 1 / 3 <= res["upper"]:
            out.errors.append(f"1/3 outside [{res['lower']}, {res['upper']}]")
        return out

    tasks.append(Task("bohr oned tol=1e-3",
                      lambda: _run_cli(["bohr", "oned", "--tol", "1e-3", "--seed", str(seed),
                                        "--out", str(oned)]),
                      oned_check))
    return Workload(tasks, table_task("2", "3/2", "64", 1))


WORKLOADS = {
    "sweep_chi": sweep_chi,
    "norm_suite": norm_suite,
    "radius_bounds": radius_bounds,
}
