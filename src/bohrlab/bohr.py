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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ExponentPair, chi_upper_ends, log_chi_tail, log_chi_uppers
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


WIENER_M0 = 16  # the first dense range of the Wiener sum
WIENER_TAIL_SHARE = 2.0 ** -20  # a tail below this share of 1/2 ends the doubling
# Most work m0^2 bit_length(n) a doubled dense range may take: the terms of
# the lemma's powering, and about the bits that record A's counts
# |Lambda(m, n)| reach over the range
WIENER_WORK = 10**7


def _wiener_terms(t: float, logs: list[float], tau: float) -> tuple[float, float, float, float]:
    """At r = e^t: the dense part sum over m <= m0 = len(logs) of
    e^(m t + logs[m-1]) (math.fsum), the tail x^(m0+1) / (1 - x) with x an
    upper end of e^(t + tau) (inf where x >= 1), the relative margin
    2^-50 (E + 4), E = m0 |t| + max logs + tau, that lifts their float sum
    above the exact sum, and the sum's derivative in t (each dense term m
    times, the tail (m0 + 1 + x / (1 - x)) times), which only steers the
    root search.

    Error.  With u = 2^-53 and math.exp and pow within one ulp (2u): the
    exponent m t + L of a dense term is off by at most 2.01u (|m t| + L),
    so each term is within 2.02u E + 2u of its exact value, and fsum adds
    u.  x is exp(t + tau), off by u (|t| + tau) + 2u, lifted by 2^-50
    (|t| + tau + 4) and rounded up, so it is at least e^(t + tau); the
    tail x^k / (1 - x) grows with x, and pow, the difference (exact where
    x >= 1/2) and the division add 4u.  The margin's 8u E + 32u covers
    these and the two roundings of the final sum and product."""
    m0 = len(logs)
    terms = [math.exp(m * t + v) for m, v in enumerate(logs, 1)]
    x = math.nextafter(math.exp(t + tau) * (1 + 2.0 ** -50 * (abs(t) + tau + 4)), math.inf)
    tail = tail_slope = math.inf
    if x < 1:
        tail = x ** (m0 + 1) / (1 - x)
        tail_slope = tail * (m0 + 1 + x / (1 - x))
    slope = math.fsum(m * v for m, v in enumerate(terms, 1)) + tail_slope
    return math.fsum(terms), tail, 2.0 ** -50 * (m0 * abs(t) + max(logs) + tau + 4), slope


def _wiener_root(logs: list[float], tau: float) -> float:
    """A t, within 2^-39 (1 + |t|) below the largest, at which the sum of
    _wiener_terms with its margin is at most 1/2: every m >= 1 with
    ln U_m <= logs[m-1] for m <= len(logs) and ln U_m <= m tau past it then
    has sum e^(m t) U_m <= 1/2.

    The search keeps lo, where the lifted sum fits, and hi, where it does
    not.  It starts from lo = -R - ln 3 - 2^-20, R the largest of tau and
    logs[m-1] / m (there each U_m e^(m t) <= 3^-m e^(-m 2^-20), whose sum
    is below 1/2 by far more than the margin; lower t are tried if not),
    and hi = -tau, where the tail is infinite.  ln of the sum is convex in
    t (a sum of exponentials), so a Newton step on it from below the root
    lands above it, and from above stays above: the steps fall to the root
    from above.  A step from above shorter than the tolerance tries the
    point one tolerance further down, and a step that leaves (lo, hi) is
    replaced by the midpoint.  It stops when hi - lo is at most twice the
    tolerance 2^-40 (1 + |lo|), or when ln of the sum at lo is within the
    tolerance of ln(1/2): every term grows like e^(m t), m >= 1, so that
    log grows at least as fast as t and the root is no further away."""
    def excess(t: float) -> tuple[float, float]:  # ln(2 x lifted sum), <= 0 where it fits; slope
        dense, tail, margin, slope = _wiener_terms(t, logs, tau)
        if tail == math.inf:
            return math.inf, math.inf
        return math.log(2 * (dense + tail) * (1 + margin)), slope / (dense + tail)

    lo = -max(tau, *(v / m for m, v in enumerate(logs, 1))) - math.log(3.0) - 2.0 ** -20
    while (f := excess(lo))[0] > 0:
        lo -= 1.0
    t, hi, f_lo = lo, -tau, f[0]
    while hi - lo > 2.0 ** -39 * (1 + abs(lo)) and -f_lo > 2.0 ** -40 * (1 + abs(lo)):
        tol, step = 2.0 ** -40 * (1 + abs(t)), f[0] / f[1]
        t -= step + tol if 0 < step <= tol else step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        f = excess(t)
        if f[0] <= 0:
            lo, f_lo = t, f[0]
        else:
            hi = t
    return lo


def wiener_lower(n: int, e: ExponentPair) -> Endpoint:
    """A lower end of K(B_p^n, B_q^n) from Wiener's inequality over every
    degree: K >= sup { r : sum over m >= 1 of r^m U_m <= 1/2 } for any chi
    upper ends U_m >= chi(m, n; p, q).

    Proof.  Take f = sum_m P_m with |f| <= 1 on B_p, a = |f(0)|, and z in
    B_p.  lambda -> f(lambda z) maps the disk into the disk, so Wiener's
    inequality gives |P_m(z)| <= 1 - a^2 for m >= 1, that is
    ||P_m||_{B_p} <= 1 - a^2.  On r B_q the coefficient sum of P_m is
    r^m times its sum on B_q, at most r^m chi_m ||P_m||_{B_p}.  So the
    whole sum is at most a + (1 - a^2) sum_m r^m U_m <= a + (1 - a^2)/2,
    which is <= 1 for every a in [0, 1].  A power series on B_p is the
    limit of its truncations, so polynomials suffice.  If every
    U_m <= R^m, then r = 1/(3R) fits (sum 3^-m = 1/2), so the end is never
    below a third of the least K_m lower end U_m^(-1/m) over all m; at
    U_m = 1 the sum is r / (1 - r), and r = 1/3 is Bohr's radius.

    The U_m come from log_chi_uppers over m <= m0 and the tail bound
    log_chi_tail(m0) past it.  m0 starts at WIENER_M0 and doubles, each
    range one log_chi_uppers call over its new degrees (so one powering),
    until the tail's share of 1/2 at the root is below WIENER_TAIL_SHARE,
    or until the doubled range would pass WIENER_WORK.  Where every log
    and the tail are exactly 0 the end is 1/3, rounded down; else it is
    e^t for the root t of _wiener_root, two ulps down.  The source names
    m0, the m with the largest term and its record."""
    n, m0, ends = operator.index(n), WIENER_M0, []
    while True:
        # entries for m <= len(ends) are bit for bit the ones a call up to m0 gives
        ends += log_chi_uppers(list(range(len(ends) + 1, m0 + 1)), n, e)
        logs, tau = [v for v, _ in ends], log_chi_tail(m0, n, e)
        if tau == 0 and not any(logs):
            t, value = -math.log(3.0), 1.0 / 3.0  # sum r^m = r / (1 - r); 1/3 rounds down
        else:
            t = _wiener_root(logs, tau)
            value = math.nextafter(math.nextafter(math.exp(t), 0.0), 0.0)
        top = max(range(m0), key=lambda i: (i + 1) * t + logs[i])  # the first of equal terms
        found = Endpoint(value, f"Wiener sum over all m (dense to m0 = {m0}; "
                                f"dominant m = {top + 1}, {ends[top][1]})")
        if (_wiener_terms(t, logs, tau)[1] < WIENER_TAIL_SHARE * 0.5
                or 4 * m0 * m0 * n.bit_length() > WIENER_WORK):
            return found
        m0 *= 2


def k_bracket(n: int, e: ExponentPair, M_max: int,
              cfg: OptConfig | None = None, **chi_kw) -> BoundBracket:
    """Bracket for the full radius K.

    Lower: wiener_lower, Wiener's inequality summed over every degree
    m >= 1 from the closed-form chi upper ends, certified for all m and
    rounded down (exactly 1/3 where every chi upper end is 1).
    Upper: min(1/3, min over m <= M_max of the K_m upper endpoint), since
    restricting to one variable embeds the disk.  A K_m upper end needs only
    the chi lower end (witness.chi_lower_end, which takes chi_kw), so no
    chi upper bound is computed a second time.  M_max bounds only these
    witness degrees.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if M_max < 1:
        raise ValueError(f"need M_max >= 1, got {M_max}")
    lower = wiener_lower(n, e)
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
