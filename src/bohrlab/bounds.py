"""Closed-form analytic bounds: the index-tuple multiplicity sums, the
unconditionality-constant upper bound for small exponents, the random-sign
norm envelope, coefficient-based generic bounds, and the asymptotic region
map with its rate expressions.

Exponents p, q live in [1, inf] (math.inf allowed); 1/inf = 0 throughout and
the conjugate of 1 is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceededError
from .multiindex import (
    enumerate_lambda,
    lambda_card,
    multiplicity,
    partition_shapes,
)

INF = math.inf


def inv(p: float) -> float:
    """1/p in extended arithmetic (1/inf = 0)."""
    if p == INF:
        return 0.0
    if p < 1:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return 1.0 / p


def conjugate(p: float) -> float:
    """Conjugate exponent: 1/p + 1/p' = 1, with 1' = inf and inf' = 1."""
    if p == INF:
        return 1.0
    if p == 1:
        return INF
    if p < 1:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentPair:
    """A pair (p, q) of extended exponents with conjugates and the derived
    multiplicity-sum exponent beta = (1/q - 1/p) * q'."""

    p: float
    q: float

    def __post_init__(self):
        if not (1 <= self.p) or not (1 <= self.q):
            raise ValueError(f"exponents must lie in [1, inf], got ({self.p}, {self.q})")

    @property
    def p_conj(self) -> float:
        return conjugate(self.p)

    @property
    def q_conj(self) -> float:
        return conjugate(self.q)

    @property
    def beta(self) -> float:
        """(1/q - 1/p) * q'; infinite/undefined when q = 1 and p > 1."""
        diff = inv(self.q) - inv(self.p)
        qc = self.q_conj
        if qc == INF:
            return 0.0 if diff == 0 else math.copysign(INF, diff)
        return diff * qc


# --- multiplicity sums ----------------------------------------------------


def j_sum(
    m: int,
    n: int,
    e: ExponentPair | None = None,
    beta: float | None = None,
    method: str = "partition",
    budget: int = 10**8,
) -> float:
    """Sum over the length-(m-1) index tuples of multiplicity^(-beta).

    beta defaults to the pair's derived exponent.  The degenerate m = 1 sum
    (over the empty tuple, multiplicity 1) is 1 by convention.  Two routes:
    "naive" streams the full multi-index set, "partition" groups by the
    partition shape of the exponents; they agree to relative 1e-12.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if beta is None:
        if e is None:
            raise ValueError("give an ExponentPair or an explicit beta")
        beta = e.beta
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if m == 1:
        return 1.0
    if method == "naive":
        card = lambda_card(m - 1, n)
        if card > budget:
            raise BudgetExceededError(f"naive path needs {card} items, budget {budget}")
        return math.fsum(
            float(multiplicity(a)) ** (-beta) for a in enumerate_lambda(m - 1, n)
        )
    if method == "partition":
        mfact = math.factorial(m - 1)
        terms = []
        for shape in partition_shapes(m - 1, n):
            mult = mfact
            for part in shape.parts:
                mult //= math.factorial(part)
            terms.append(shape.arrangements * float(mult) ** (-beta))
        return math.fsum(terms)
    raise ValueError(f"unknown method {method!r}")


def j_sum_filtered(m: int, n: int, beta: float, keep) -> float:
    """Like j_sum but restricted to multi-indices where keep(alpha) is true.
    Used for the k-bounded / shell splitting checks."""
    if m == 1:
        return 1.0 if keep(()) else 0.0
    return math.fsum(
        float(multiplicity(a)) ** (-beta)
        for a in enumerate_lambda(m - 1, n)
        if keep(a)
    )


# --- chi upper bounds -----------------------------------------------------


def chi_upper_small_pq(m: int, n: int, e: ExponentPair, exp_base: str = "p") -> float:
    """Upper bound m * e^(1 + (m-1)/p) * (multiplicity sum)^(1/q') on the
    mixed unconditionality constant, valid for 1 <= q <= p <= 2.

    exp_base selects the exponent base in e^(1+(m-1)/base) ("p" per the
    statement; "q" available for sensitivity runs).
    """
    if not (1 <= e.q <= e.p <= 2):
        raise ValueError(f"need 1 <= q <= p <= 2, got ({e.p}, {e.q})")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    base = e.p if exp_base == "p" else e.q
    factor = m * math.exp(1.0 + (m - 1) * inv(base))
    if e.q == 1:
        # q' = inf: the l_q' aggregate degenerates to a sup, and every
        # multiplicity^(1/p - 1) is at most 1.
        return factor
    return factor * j_sum(m, n, e) ** inv(e.q_conj)


def lempoly_rhs(m: int, n: int, p: float, j: tuple[int, ...]) -> float:
    """Slice-inequality constant m * e^(1+(m-1)/p) * |j|^(1/p) for a
    length-(m-1) tuple j."""
    if m < 2:
        raise ValueError("slice inequality needs m >= 2")
    if len(j) != m - 1:
        raise ValueError(f"tuple length {len(j)} != m-1 = {m - 1}")
    counts: dict[int, int] = {}
    for v in j:
        counts[v] = counts.get(v, 0) + 1
    mult = math.factorial(m - 1)
    for c in counts.values():
        mult //= math.factorial(c)
    return m * math.exp(1.0 + (m - 1) * inv(p)) * float(mult) ** inv(p)


def bayart_bound(m: int, n: int, p: float) -> float:
    """Shape (without the unknown p-constant) of the smallest achievable
    sup-norm of a full random-sign multinomial polynomial:
    (log(m) m!)^(1-1/p) n^(1-1/p) for p <= 2 and
    (log(m) m!)^(1/2) n^(m(1/2-1/p)+1/2) for p >= 2.

    For m = 1 the log factor is replaced by 1.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    logm = math.log(m) if m >= 2 else 1.0
    core = logm * math.factorial(m)
    ip = inv(p)
    if p <= 2:
        return core ** (1.0 - ip) * n ** (1.0 - ip)
    return core**0.5 * n ** (m * (0.5 - ip) + 0.5)


def coeff_chi_upper_generic(m: int, n: int, p: float) -> float:
    """Crude universal chi upper bound |Lambda(m,n)| * n^(m/p) from the
    coefficient (Cauchy) estimate and the l_inf-to-l_p norm comparison."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    return float(lambda_card(m, n)) * n ** (m * inv(p))


class PowerLogMin(NamedTuple):
    x_star: float
    value: float
    int_value: float
    int_arg: int


def min_power_log(a: float, b: float, n: float) -> PowerLogMin:
    """Minimize f(x) = x^a n^(b/x) over x > 0 (minimum at x = b log(n)/a),
    plus the minimum over positive integers (checked at 1, floor, ceil)."""
    if a <= 0 or b <= 0 or n < 2:
        raise ValueError("need a, b > 0 and n >= 2")

    def f(x: float) -> float:
        return x**a * n ** (b / x)

    x_star = b * math.log(n) / a
    cands = sorted({1, max(1, math.floor(x_star)), max(1, math.ceil(x_star))})
    best = min(cands, key=f)
    return PowerLogMin(x_star, f(x_star), f(best), best)


# --- envelope fitting -------------------------------------------------------

ENVELOPE_LOG_RANGE_C = 2.0  # the "some c > 1" of the middle m-regime


@dataclass(frozen=True)
class EnvelopeReport:
    value: float
    m: int
    n: int
    regimes: tuple[str, ...]  # subset of ("large-m", "small-m", "log-window")


def envelope_constant(m: int, n: int, e: ExponentPair) -> EnvelopeReport:
    """m-th root of the ratio (multiplicity sum)^(1/q') * log(n)^(m/p') / n^(m/q'),
    i.e. the constant whose m-th power the envelope lemmas bound.

    The attached regime tags say which lemma's m-range (m, n) falls in:
    "large-m" for m >= log(n)^(q'/p'), "small-m" for
    m <= log(n)/(loglog(n) beta), "log-window" for
    log(n)^(1/c) <= m <= log(n)^c with c = 2.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not (1 <= e.q <= e.p <= 2) or e.q == 1:
        raise ValueError(f"need 1 < q <= p <= 2, got ({e.p}, {e.q})")
    s = j_sum(m, n, e)
    ipc = inv(e.p_conj)
    iqc = inv(e.q_conj)
    logn = math.log(n)
    value = (s**iqc * logn ** (m * ipc) / n ** (m * iqc)) ** (1.0 / m)

    regimes = []
    if m >= logn ** (e.q_conj / e.p_conj):
        regimes.append("large-m")
    beta = e.beta
    loglog = math.log(logn) if logn > 1 else 0.0
    if beta == 0 or (loglog > 0 and m <= logn / (loglog * beta)):
        regimes.append("small-m")
    c = ENVELOPE_LOG_RANGE_C
    if logn ** (1.0 / c) <= m <= logn**c:
        regimes.append("log-window")
    return EnvelopeReport(value, m, n, tuple(regimes))


# --- region map -------------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    """Asymptotic growth class of the mixed radius: rate is
    log(n)^log_exponent / n^n_exponent (constants never asserted)."""

    tag: str  # "I", "II", "III", or "Q1"
    n_exponent: float
    log_exponent: float
    flags: tuple[str, ...] = ()


def region_classify(p: float, q: float) -> RegionReport:
    """Map (p, q) to its growth region.

    The boundary line 1/q = 1/2 + 1/p (p >= 2) is classified as region I
    (rate ~ 1 is proved exactly there); p = 2 is the II/III seam where both
    formulas coincide; the sector p < 2 < q is not covered by a printed case
    and is reported with the region-III formula plus an "extrapolated" flag.
    """
    ip, iq = inv(p), inv(q)
    if q == 1:
        return RegionReport("Q1", 0.0, 0.0, ("q=1",))
    if p >= 2:
        if 0.5 + ip <= iq:
            flags = ("I-II-boundary",) if 0.5 + ip == iq else ()
            return RegionReport("I", 0.0, 0.0, flags)
        flags = ("II-III-seam",) if p == 2 else ()
        return RegionReport("II", 0.5 + ip - iq, 0.5, flags)
    flags = () if q <= 2 else ("extrapolated",)
    return RegionReport("III", 1.0 - iq, 1.0 - ip, flags)


def rate(p: float, q: float, n: int) -> float:
    """Evaluate the classified region's rate expression at n (no constant)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rep = region_classify(p, q)
    return math.log(n) ** rep.log_exponent / n**rep.n_exponent


def transfer_lower_pq(n: int, e: ExponentPair, k_diag: float) -> float:
    """Lower bound (1/3) n^(1/q - 1/p) k_diag on the mixed radius from a
    diagonal-radius lower bound, valid for p <= q."""
    if e.p > e.q:
        raise ValueError(f"transfer needs p <= q, got ({e.p}, {e.q})")
    return (1.0 / 3.0) * n ** (inv(e.q) - inv(e.p)) * k_diag
