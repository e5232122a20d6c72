"""Bohr-radius brackets: the homogeneous radius from unconditionality
brackets, the full radius via the 1/3 comparison, the one-dimensional
radius-1/3 reproduction, and the degreewise coefficient-norm (Wiener)
checker with the seeded random normalized series it is run on.

Endpoint direction discipline: a certified K lower bound may only consume
chi upper bounds, and a K upper bound only chi lower bounds.  A K end made
from a chi end keeps that end's estimate flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ExponentPair, chi_upper_ends, log_chi_uppers
from .errors import BudgetExceededError
from .multiindex import enumerate_lambda, lambda_card
from .optimize import OptConfig, bohr_sum, series_part_sups, series_sup
from .polynomial import HomPoly, TruncatedSeries, moebius_series, scale
from .witness import BoundBracket, Endpoint, chi_lower_end


def _k_upper(m: int, chi_lower: Endpoint) -> Endpoint:
    """The K_m upper end chi_lower^(-1/m), capped at 1."""
    return replace(chi_lower, value=min(1.0, chi_lower.value ** (-1.0 / m)),
                   source=f"chi lower: {chi_lower.source}")


def k_m_bracket(m: int, n: int, e: ExponentPair,
                cfg: OptConfig | None = None, **chi_kw) -> BoundBracket:
    """Bracket for the degree-m radius K_m = chi^(-1/m): the chi ends (>= 1)
    pass through x -> x^(-1/m) into [0, 1], swapping roles; the lower end
    comes from the closed-form chi upper log (bounds.chi_upper_ends)."""
    upper = _k_upper(m, chi_lower_end(m, n, e, cfg, **chi_kw))
    [(log_up, source)] = log_chi_uppers([m], n, e)
    return BoundBracket(Endpoint(chi_upper_ends(log_up, m)[1], f"chi upper: {source}"), upper, m)


def k_bracket(n: int, e: ExponentPair, M_max: int,
              cfg: OptConfig | None = None, **chi_kw) -> BoundBracket:
    """Bracket for the full radius K.

    Lower: (1/3) / sup_m chi_upper(m)^(1/m), a third of the least K_m lower
    end (rounded down) over every m <= M_max and a geometric tail grid up
    to 10*M_max; the report claims only the grid it evaluated.  The whole
    grid takes one log_chi_uppers call, so its multiplicity sums come from
    one powering at the largest m, whose budget is checked before any work.
    Upper: min(1/3, min over m <= M_max of the K_m upper endpoint), since
    restricting to one variable embeds the disk.  A K_m upper end needs only
    the chi lower end (witness.chi_lower_end, which takes chi_kw), so no
    chi upper bound is computed a second time.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if M_max < 1:
        raise ValueError(f"need M_max >= 1, got {M_max}")
    grid, mm = list(range(1, M_max + 1)), M_max
    while mm < 10 * M_max:
        mm = min(max(mm + 1, int(mm * 1.5)), 10 * M_max)
        grid.append(mm)
    low = min(chi_upper_ends(v, m)[1] for m, (v, _) in zip(grid, log_chi_uppers(grid, n, e)))
    lower = Endpoint(low / 3 if low == 1 else math.nextafter(low / 3, 0.0),  # 1/3 rounds down
                     f"chi-upper roots over m grid {grid}")

    upper = Endpoint(1.0 / 3.0, "K(disk) = 1/3 one-variable restriction")
    for m in range(1, M_max + 1):
        km_upper = _k_upper(m, chi_lower_end(m, n, e, cfg, **chi_kw))
        if km_upper.value < upper.value:
            upper = replace(km_upper, source=f"K_{m} upper ({km_upper.source})")
    return BoundBracket(lower, upper, f"all m <= {M_max}")


def _moebius_violation(r: float, M: int) -> bool:
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
        if bohr_sum(moebius_series(a, M), r, 2.0).value > 1.0:  # exact in one variable
            return True
    return False


MOEBIUS_DEGREE = 40  # truncation degree of the disk automorphisms
MC_SERIES = 10_000  # random series checked at the lower endpoint
MC_DEGREE = 12  # their degree


def bohr_1d_bracket(tol: float, seed: int = 0) -> BoundBracket:
    """Bracket for the one-variable radius (the classical 1/3).

    Upper endpoint: bisection on r against the truncated disk-automorphism
    family, keeping an r where some member's Bohr sum exceeds 1 (exact in
    one variable, so no optimizer settings enter).  Lower
    endpoint: 1/3 - tol, supported by checking the coefficient sum against
    the circle sup on a Monte Carlo suite of random truncated series.
    """
    if not 0 < tol <= 1.0 / 3.0:  # NaN fails too
        raise ValueError(f"need 0 < tol <= 1/3, got {tol}")

    lo, hi = 1.0 / 3.0, 1.0 / 3.0 + tol
    doublings = 0
    while not _moebius_violation(hi, MOEBIUS_DEGREE):
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
        if _moebius_violation(mid, MOEBIUS_DEGREE):
            hi = mid
        else:
            lo = mid

    r_lo = 1.0 / 3.0 - tol
    fails = _random_series_failures(r_lo, MC_SERIES, MC_DEGREE, seed)
    if fails:
        raise RuntimeError(f"{fails} random series violated the Bohr sum at r={r_lo}")
    return BoundBracket(
        Endpoint(r_lo, f"Monte Carlo: {MC_SERIES} random degree-{MC_DEGREE} series"),
        Endpoint(hi, "disk-automorphism truncations, Bohr sum > 1"), "all m")


CIRCLE_POINTS = 4096  # equally spaced points the circle sup is sampled on


def _random_coeffs(rng: np.random.Generator, count: int, M: int) -> np.ndarray:
    """count standard complex Gaussian coefficient rows of length M + 1."""
    return (rng.standard_normal((count, M + 1))
            + 1j * rng.standard_normal((count, M + 1))) / np.sqrt(2)


def _circle_sup(coeffs: np.ndarray) -> np.ndarray:
    """Per row, the max of |sum_k c_k w^k| over the CIRCLE_POINTS roots of
    unity w.  Rows are evaluated 64 at a time, so the values on the circle
    take 4 MB whatever the row count."""
    k = np.arange(coeffs.shape[1])
    theta = np.exp(2j * np.pi * np.outer(np.arange(CIRCLE_POINTS) / CIRCLE_POINTS, k))
    return np.concatenate([np.abs(coeffs[i:i + 64] @ theta.T).max(axis=1)
                           for i in range(0, len(coeffs), 64)])


def _random_series_failures(r: float, count: int, M: int, seed: int) -> int:
    """Number of random 1-D truncated series whose coefficient sum at radius r
    exceeds their circle sup (sampled on CIRCLE_POINTS points), drawn 512 at
    a time.

    A Parseval screen settles most rows without the circle.  For degree
    M < N = CIRCLE_POINTS the sampled values satisfy
    (1/N) sum_j |F(w_j)|^2 = sum_k |c_k|^2 exactly, so the sampled max is at
    least sqrt(sum_k |c_k|^2).  The computed values differ from the exact
    ones by about 1e-13 * sum_k |c_k| (theta's phases reach 2 pi M, so its
    entries are off by ~1e-14; the M + 1 term product adds a few eps each),
    and the screen's sums are off by a few eps relative.  So a row with
    lhs <= sqrt(sum |c_k|^2) - 1e-9 * sum |c_k| would also pass the dense
    check, and only the other rows go through _circle_sup: the count is the
    dense count on any seed, not only on the tested ones."""
    rng = np.random.default_rng(seed)
    rk = r ** np.arange(M + 1)
    rows, sums = [], []
    for lo in range(0, count, 512):
        coeffs = _random_coeffs(rng, min(512, count - lo), M)
        mod = np.abs(coeffs)
        lhs = mod @ rk
        unsettled = lhs > np.sqrt((mod * mod).sum(axis=1)) - 1e-9 * mod.sum(axis=1)
        rows.append(coeffs[unsettled])
        sums.append(lhs[unsettled])
    rows, lhs = np.concatenate(rows), np.concatenate(sums)
    return int((lhs > _circle_sup(rows)).sum()) if len(rows) else 0


NORM_RESTARTS = 48  # optimizer restarts of random_series' sup estimate
NORM_MARGIN = 1e-2  # relative margin random_series leaves above that estimate


def random_series(n: int, M: int, seed: int, budget: int, p: float = 2.0) -> TruncatedSeries:
    """Random truncated series with standard complex Gaussian coefficients,
    rescaled so its estimated sup-norm on the l_p unit ball is <= 1.

    The sup estimate is a lower bound, so the rescale leaves a relative
    margin (NORM_MARGIN) to keep the true sup below 1 as well.

    Deterministic for a fixed seed.  budget bounds the total coefficient
    count (constant term included)."""
    total = 1 + sum(lambda_card(k, n) for k in range(1, M + 1))
    if total > budget:
        raise BudgetExceededError(f"series needs {total} coefficients, budget {budget}")
    rng = np.random.default_rng(seed)

    def draw(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    a0 = complex(draw(1)[0])
    parts = []
    for k in range(1, M + 1):
        alphas = list(enumerate_lambda(k, n))
        cs = draw(len(alphas))
        parts.append(HomPoly(n, k, dict(zip(alphas, cs))))
    F = TruncatedSeries(n, a0, parts)
    est = series_sup(F, p, OptConfig(restarts=NORM_RESTARTS, seed=seed)).value
    if est > 0:
        s = est * (1.0 + NORM_MARGIN)
        F = TruncatedSeries(n, a0 / s, [scale(P, 1.0 / s) for P in parts])
    return F


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
    est, *parts = series_part_sups(F, p, cfg)  # one ascent
    if est.value > 1.0 + norm_tol:
        raise ValueError(f"series is not normalized: estimated sup {est.value} > 1")
    cap = slack * (1.0 - abs(F.a0) ** 2)
    rows = tuple(WienerRow(P.m, e.value, cap, e.value <= cap + 1e-12)
                 for P, e in zip(F.parts, parts))
    return WienerReport(rows, all(r.ok for r in rows), abs(F.a0))
