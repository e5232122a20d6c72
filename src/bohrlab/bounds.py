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

import numpy as np

from .errors import BudgetExceededError
from .multiindex import enumerate_lambda, lambda_card, multiplicity, tuple_to_alpha

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


def _log_series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two power series given by finite log-coefficients."""
    out = np.empty(len(a))
    for t in range(len(a)):
        s = a[: t + 1] + b[t::-1]
        top = s.max()
        out[t] = top + math.log(np.exp(s - top).sum())
    return out


def log_j_sums(M: int, n: int, beta: float, budget: int = 10**8) -> np.ndarray:
    """ln j_sum(m, n) for m = 1..M (entry m - 1), from
    j_sum(m, n) = (k!)^(-beta) [x^k] (sum_{j<=k} (j!)^beta x^j)^n, k = m-1:
    one binary powering of truncated log-coefficient series, positive terms
    only, no overflow, M^2 * bit_length(n) terms of work (at most budget,
    checked before any).

    Entry t of a truncated product reads only entries <= t of its factors,
    so entry m - 1 here is bit for bit the value a powering truncated at
    degree m - 1 gives: one powering at the largest m serves every smaller m."""
    if M < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={M}, n={n}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    work = M * M * n.bit_length()
    if work > budget:
        raise BudgetExceededError(f"generating function needs {work} terms, budget {budget}")
    log_fact = np.array([math.lgamma(j + 1) for j in range(M)])
    power, base = None, beta * log_fact
    while True:
        if n & 1:
            power = base if power is None else _log_series_mul(power, base)
        n >>= 1
        if not n:
            return power - beta * log_fact
        base = _log_series_mul(base, base)


def log_j_sum(m: int, n: int, beta: float, budget: int = 10**8) -> float:
    """ln j_sum(m, n): the last entry of log_j_sums(m, n, beta, budget)."""
    return float(log_j_sums(m, n, beta, budget)[-1])


def _exp(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{what} does not fit in a float: ln {what} = {log_value!r}") from None


def j_sum(m: int, n: int, e: ExponentPair | None = None, beta: float | None = None,
          method: str = "gf", budget: int = 10**8) -> float:
    """Sum over the length-(m-1) index tuples of multiplicity^(-beta).

    beta defaults to the pair's derived exponent; the m = 1 sum (over the
    empty tuple) is 1.  "gf" is exp(log_j_sum), a ValueError naming ln j_sum
    past the float range; "naive" streams the multi-index set (at most budget
    items) and is the reference the tests hold "gf" to.
    """
    if beta is None:
        if e is None:
            raise ValueError("give an ExponentPair or an explicit beta")
        beta = e.beta
    if method == "gf":
        return _exp(log_j_sum(m, n, beta, budget), "j_sum")
    if method != "naive":
        raise ValueError(f"unknown method {method!r}")
    card = lambda_card(m - 1, n)
    if card > budget:
        raise BudgetExceededError(f"naive path needs {card} items, budget {budget}")
    return math.fsum(float(multiplicity(a)) ** (-beta) for a in enumerate_lambda(m - 1, n))


# --- chi upper bounds -----------------------------------------------------


def _log_chi_uppers_small_pq(ms: list[int], n: int, e: ExponentPair) -> list[float]:
    """ln of the small-exponent lemma's bound at each m of ms, from one
    powering at the largest (its budget error comes before any other work)."""
    if not (1 <= e.q <= e.p <= 2):
        raise ValueError(f"need 1 <= q <= p <= 2, got ({e.p}, {e.q})")
    if min(ms) < 1:
        raise ValueError(f"need m >= 1, got {min(ms)}")
    log_factors = [math.log(m) + 1.0 + (m - 1) * inv(e.p) for m in ms]
    if e.q == 1:
        # q' = inf: the l_q' aggregate degenerates to a sup, and every
        # multiplicity^(1/p - 1) is at most 1.
        return log_factors
    log_sums = log_j_sums(max(ms), n, e.beta).tolist()
    return [f + log_sums[m - 1] * inv(e.q_conj) for f, m in zip(log_factors, ms)]


def chi_upper_small_pq(m: int, n: int, e: ExponentPair) -> float:
    """Upper bound m * e^(1 + (m-1)/p) * (multiplicity sum)^(1/q') on the
    mixed unconditionality constant, valid for 1 <= q <= p <= 2."""
    return _exp(_log_chi_uppers_small_pq([m], n, e)[0], "chi_upper")


def _log_coeff_chi_upper(m: int, n: int, p: float) -> float:
    return math.log(lambda_card(m, n)) + m * inv(p) * math.log(n)


def log_chi_uppers(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, str]]:
    """For each m of ms, ln of the best closed-form upper bound on
    chi(m, n; p, q) and its source: the coefficient bound, or the
    small-exponent lemma where it applies (1 <= q <= p <= 2) and is smaller.
    The lemma's multiplicity sums come from one powering at the largest m."""
    lemma = (_log_chi_uppers_small_pq(ms, n, e) if 1 <= e.q <= e.p <= 2
             else [None] * len(ms))
    out = []
    for m, small in zip(ms, lemma):
        cands = [(_log_coeff_chi_upper(m, n, e.p), "coefficient bound")]
        if small is not None:
            cands.append((small, "small-exponent lemma"))
        out.append(min(cands, key=lambda c: c[0]))
    return out


def log_chi_upper(m: int, n: int, e: ExponentPair) -> tuple[float, str]:
    """log_chi_uppers at the one degree m."""
    return log_chi_uppers([m], n, e)[0]


def lempoly_rhs(m: int, n: int, p: float, j: tuple[int, ...]) -> float:
    """Slice-inequality constant m * e^(1+(m-1)/p) * |j|^(1/p) for a
    length-(m-1) tuple j."""
    if m < 2:
        raise ValueError("slice inequality needs m >= 2")
    if len(j) != m - 1:
        raise ValueError(f"tuple length {len(j)} != m-1 = {m - 1}")
    mult = multiplicity(tuple_to_alpha(j, n))
    return m * math.exp(1.0 + (m - 1) * inv(p)) * float(mult) ** inv(p)


def bayart_bound(m: int, n: int, p: float) -> float:
    """Shape (without the unknown p-constant) of the smallest achievable
    sup-norm of a full random-sign multinomial polynomial:
    (log(m) m!)^(1-1/p) n^(1-1/p) for p <= 2 and
    (log(m) m!)^(1/2) n^(m(1/2-1/p)+1/2) for p >= 2.

    For m = 1 the log factor is replaced by 1.  Computed in logs; a ValueError
    naming ln bayart_bound past the float range.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    log_core = (math.log(math.log(m)) if m >= 2 else 0.0) + math.lgamma(m + 1)
    ip = inv(p)
    if p <= 2:
        return _exp((1.0 - ip) * (log_core + math.log(n)), "bayart_bound")
    return _exp(0.5 * log_core + (m * (0.5 - ip) + 0.5) * math.log(n), "bayart_bound")


# --- envelope fitting -------------------------------------------------------

ENVELOPE_LOG_RANGE_C = 2.0  # the "some c > 1" of the middle m-regime


@dataclass(frozen=True)
class EnvelopeReport:
    value: float
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
    logn = math.log(n)
    log_value = (log_j_sum(m, n, e.beta) * inv(e.q_conj)
                 + m * (inv(e.p_conj) * math.log(logn) - inv(e.q_conj) * logn))
    value = math.exp(log_value / m)

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
    return EnvelopeReport(value, tuple(regimes))


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
