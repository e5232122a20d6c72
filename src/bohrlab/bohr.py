"""Bohr-radius brackets: the homogeneous radius from unconditionality
brackets, the full radius via the 1/3 comparison, the one-dimensional
radius-1/3 reproduction, and the degreewise coefficient-norm (Wiener)
checker.

Endpoint direction discipline: a certified K lower bound may only consume
chi upper bounds, and a K upper bound only chi lower bounds.  Estimate-based
endpoints inherit the "estimate-based" marker in their provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ExponentPair, chi_upper_small_pq, coeff_chi_upper_generic
from .errors import BudgetExceededError
from .optimize import OptConfig, bohr_sum, series_sup, sup_norm
from .polynomial import HomPoly, TruncatedSeries, moebius_series
from .witness import SearchConfig, chi_bracket


@dataclass(frozen=True)
class RadiusBracket:
    """[lower, upper] for a Bohr radius, with the degree(s) it refers to."""

    lower: float
    upper: float
    m: object  # an int for K_m, a string like "all m <= M" for K
    lower_src: str
    upper_src: str

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


def k_m_bracket(m: int, n: int, e: ExponentPair,
                cfg: SearchConfig | None = None, **chi_kw) -> RadiusBracket:
    """Bracket for the degree-m radius K_m = chi^(-1/m): the chi bracket
    endpoints pass through x -> x^(-1/m), which swaps their roles."""
    cb = chi_bracket(m, n, e, cfg, **chi_kw)
    lower = cb.upper ** (-1.0 / m)
    upper = min(1.0, cb.lower ** (-1.0 / m))
    return RadiusBracket(lower, upper, m,
                         f"chi upper: {cb.upper_src}",
                         f"chi lower: {cb.lower_src}")


def _best_chi_upper(m: int, n: int, e: ExponentPair) -> float:
    best = coeff_chi_upper_generic(m, n, e.p)
    if 1 <= e.q <= e.p <= 2:
        best = min(best, chi_upper_small_pq(m, n, e))
    return best


def k_bracket(n: int, e: ExponentPair, M_max: int,
              cfg: SearchConfig | None = None, **chi_kw) -> RadiusBracket:
    """Bracket for the full radius K.

    Lower: (1/3) / sup_m chi_upper(m)^(1/m), with the closed-form upper
    bounds evaluated for every m <= M_max and on a geometric tail grid up to
    10*M_max; the report claims only the grid it evaluated.  Upper:
    min(1/3, min over m <= M_max of the K_m upper endpoint), since
    restricting to one variable embeds the disk.
    """
    if M_max < 1:
        raise ValueError(f"need M_max >= 1, got {M_max}")
    grid = list(range(1, M_max + 1))
    mm = M_max
    while mm < 10 * M_max:
        mm = max(mm + 1, int(mm * 1.5))
        grid.append(min(mm, 10 * M_max))
    grid = sorted(set(grid))
    sup_root = max(_best_chi_upper(m, n, e) ** (1.0 / m) for m in grid)
    lower = (1.0 / 3.0) / max(sup_root, 1.0)

    upper = 1.0 / 3.0
    upper_src = "K(disk) = 1/3 one-variable restriction"
    for m in range(1, M_max + 1):
        km = k_m_bracket(m, n, e, cfg, **chi_kw)
        if km.upper < upper:
            upper = km.upper
            upper_src = f"K_{m} upper ({km.upper_src})"
    return RadiusBracket(
        lower,
        upper,
        f"all m <= {M_max}",
        f"chi-upper roots over m grid {grid}",
        upper_src,
    )


def k_table(n_grid, e: ExponentPair, M_max: int,
            cfg: SearchConfig | None = None, **chi_kw) -> list[dict]:
    """Sweep rows (n, lower, upper, region, rate(n), provenance) for a grid of
    dimensions.  The provenance is "estimate-based" when either endpoint's
    source is, else "closed-form"."""
    from .bounds import rate, region_classify

    rep = region_classify(e.p, e.q)
    rows = []
    for n in n_grid:
        br = k_bracket(n, e, M_max, cfg, **chi_kw)
        rows.append({
            "n": n,
            "lower": br.lower,
            "upper": br.upper,
            "region": rep.tag,
            "rate": rate(e.p, e.q, n) if n >= 2 else float("nan"),
            "provenance": ("estimate-based" if "estimate-based" in br.lower_src + br.upper_src
                           else "closed-form"),
        })
    return rows


def _moebius_violation(r: float, M: int, cfg: OptConfig | None) -> bool:
    """True when some disk automorphism truncation has Bohr sum > 1 at r.

    The sum exceeds 1 only for a near 1 (within a window shrinking like
    r - 1/3), so the a-grid adapts to the candidate radius."""
    tau = r - 1.0 / 3.0
    if tau <= 0:
        return False
    for g in np.linspace(0.2, 1.8, 9):
        a = 1.0 - 2.25 * tau * g
        if not 0 <= a < 1:
            continue
        if bohr_sum(moebius_series(a, M), r, 2.0, cfg).value > 1.0:
            return True
    return False


def bohr_1d_bracket(tol: float, cfg: OptConfig | None = None,
                    M: int = 40, mc_series: int = 10_000,
                    mc_degree: int = 12, seed: int = 0) -> RadiusBracket:
    """Bracket for the one-variable radius (the classical 1/3).

    Upper endpoint: bisection on r against the truncated disk-automorphism
    family, keeping an r where some member's Bohr sum exceeds 1.  Lower
    endpoint: 1/3 - tol, supported by checking the coefficient sum against
    the circle sup on a Monte Carlo suite of random truncated series.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo, hi = 1.0 / 3.0, 1.0 / 3.0 + tol
    doublings = 0
    while not _moebius_violation(hi, M, cfg):
        hi = 1.0 / 3.0 + (hi - 1.0 / 3.0) * 2.0
        doublings += 1
        if doublings > 20:
            raise BudgetExceededError("no Bohr-sum violation found above 1/3")
    iters = 0
    while hi - 1.0 / 3.0 > 0.9 * tol:
        iters += 1
        if iters > 60:
            raise BudgetExceededError("bisection budget exhausted before target width")
        mid = 0.5 * (lo + hi)
        if _moebius_violation(mid, M, cfg):
            hi = mid
        else:
            lo = mid

    r_lo = 1.0 / 3.0 - tol
    fails = _random_series_failures(r_lo, mc_series, mc_degree, seed)
    if fails:
        raise RuntimeError(f"{fails} random series violated the Bohr sum at r={r_lo}")
    return RadiusBracket(
        r_lo,
        hi,
        "all m",
        f"Monte Carlo: {mc_series} random degree-{mc_degree} series",
        "disk-automorphism truncations, Bohr sum > 1",
    )


def _random_series_failures(r: float, count: int, M: int, seed: int) -> int:
    """Number of random 1-D truncated series whose coefficient sum at radius r
    exceeds their circle sup (sampled on 4096 points)."""
    rng = np.random.default_rng(seed)
    k = np.arange(M + 1)
    rk = r**k
    theta = np.exp(2j * np.pi * np.outer(np.arange(4096) / 4096.0, k))
    fails = 0
    for lo in range(0, count, 512):
        b = min(512, count - lo)
        coeffs = (rng.standard_normal((b, M + 1))
                  + 1j * rng.standard_normal((b, M + 1))) / np.sqrt(2)
        lhs = np.abs(coeffs) @ rk
        sup = np.abs(coeffs @ theta.T).max(axis=1)
        fails += int((lhs > sup).sum())
    return fails


def reduce_to_disk(F: TruncatedSeries, z) -> TruncatedSeries:
    """One-variable auxiliary series g(w) = F(w * z): the degree-m
    coefficient is the degree-m part evaluated at z."""
    z = np.asarray(z, dtype=np.complex128)
    parts = [HomPoly(1, P.m, {(P.m,): P.eval(z)}) for P in F.parts]
    return TruncatedSeries(1, F.a0, parts)


@dataclass(frozen=True)
class WienerRow:
    m: int
    norm_est: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class WienerReport:
    rows: tuple[WienerRow, ...]
    all_pass: bool
    a0_mod: float


def wiener_check(F: TruncatedSeries, p: float, slack: float = 1.0,
                 cfg: OptConfig | None = None, norm_tol: float = 1e-9) -> WienerReport:
    """Check ||P_m|| <= slack * (1 - |a0|^2) for every homogeneous part of a
    normalized series (sup |F| <= 1 on the l_p ball).

    Norm estimates are certified lower bounds, so the check errs toward
    passing; it can still certify failures.  Raises on unnormalized input
    (detected when even the estimated sup exceeds 1 + norm_tol; loosen
    norm_tol for inputs whose truncation tail pushes the sup slightly over)."""
    est = series_sup(F, p, cfg).value
    if est > 1.0 + norm_tol:
        raise ValueError(f"series is not normalized: estimated sup {est} > 1")
    cap = slack * (1.0 - abs(F.a0) ** 2)
    rows = []
    for P in F.parts:
        nm = sup_norm(P, p, cfg).value if P.coeffs else 0.0
        rows.append(WienerRow(P.m, nm, cap, nm <= cap + 1e-12))
    return WienerReport(tuple(rows), all(r.ok for r in rows), abs(F.a0))
