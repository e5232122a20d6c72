"""Closed-form analytic bounds: the index-tuple multiplicity sums, the exact
unconditionality constant of linear forms, the Fourier quadratic form's
lower bound at m = 2, the chi upper bounds (the Parseval exact-count
split, its transfer to q > p, the small-exponent lemma and the
Frobenius-Hoelder record), the random-sign norm envelope, and the
asymptotic region map with its rate expressions.

Exponents p, q live in [1, inf] (math.inf allowed); 1/inf = 0 throughout and
the conjugate of 1 is inf.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, NamedTuple

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


POWERING_BLOCK = 1 << 16  # most terms a block of a truncated product holds
# Terms below e^EXP_FLOOR times their entry's largest are raised to it:
# np.exp is about 10x slower where it underflows, and the raised terms
# move a sum of at most M terms by at most M e^-700 < 1e-300 relative.
EXP_FLOOR = -700.0


def _block_rows(t0: int, M: int) -> int:
    """Entries in the block from entry t0: the most whose terms fit in
    POWERING_BLOCK, at least one, at most M - t0.  A block of r entries
    holds t0 + r terms per entry."""
    # r (t0 + r) <= POWERING_BLOCK
    return min(M - t0, max(1, (math.isqrt(t0 * t0 + 4 * POWERING_BLOCK) - t0) // 2))


class _LogSeriesProducts:
    """Truncated products of power series of length M given by finite
    log-coefficients, a block of output entries at a time.

    Entry t is the log-sum-exp of a[i] + b[t - i] over i <= t.  A block of
    entries t0 <= t < t1 holds their terms as s[i, t - t0] for i < t1, read
    from one padded buffer of b (-inf where i > t) through a Toeplitz view,
    both built once for every product of length M; it holds at most
    max(POWERING_BLOCK, M) terms.  The terms are shifted by their entry's
    max, raised to EXP_FLOOR and exponentiated; the padding gets weight 0.

    Each entry's terms are then added in a fixed tree: with h the largest
    power of two below the term count w, terms h..w-1 are added onto terms
    0..w-h-1, and so on down to one.  A padding term adds 0.0, which
    changes no sum, so entry t's tree is the one over its own terms: it
    depends on t alone, never on M or on the block.  A row-wise np.sum over
    padded rows would round differently for each M."""

    def __init__(self, M: int):
        self.M = M
        rows = _block_rows(0, M)  # no block has more entries
        # padded[M - 1 + k] = b[k] for 0 <= k < M, -inf at k < 0 (and past M,
        # where a window of the last blocks reaches)
        self.padded = np.full(2 * M - 2 + rows, -np.inf)
        # windows[M - 1 + t0 - i, r] = padded[M - 1 + t0 + r - i] = b[t0 + r - i]
        self.windows = np.lib.stride_tricks.sliding_window_view(self.padded, rows)
        self.buf = np.empty(min(max(POWERING_BLOCK, M), M * M))  # one entry at least
        # weight of term t0 + 1 + j in entry t0 + r: 1 up to i = t, 0 past it
        self.weights = (np.arange(rows - 1)[:, None] < np.arange(rows)).astype(float)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        M = self.M
        self.padded[M - 1:2 * M - 1] = b
        out = np.empty(M)
        t0 = 0
        while t0 < M:
            rows = _block_rows(t0, M)
            t1 = t0 + rows  # terms i < t1
            s = self.buf[:t1 * rows].reshape(t1, rows)
            np.add(self.windows[M - t1 + t0:M + t0][::-1, :rows], a[:t1, None], out=s)
            top = s.max(axis=0)
            s -= top
            np.maximum(s, EXP_FLOOR, out=s)
            np.exp(s, out=s)
            s[t0 + 1:] *= self.weights[:rows - 1, :rows]  # some entry's terms end past t0
            w = t1
            while w > 1:
                h = 1 << ((w - 1).bit_length() - 1)
                s[:w - h] += s[h:w]
                w = h
            out[t0:t1] = top + np.log(s[0])
            t0 = t1
        return out


def log_j_sums(M: int, n: int, beta: float, budget: int = 10**8) -> np.ndarray:
    """ln j_sum(m, n) for m = 1..M (entry m - 1), from
    j_sum(m, n) = (k!)^(-beta) [x^k] (sum_{j<=k} (j!)^beta x^j)^n, k = m-1:
    one binary powering of truncated log-coefficient series, positive terms
    only, no overflow, M^2 * bit_length(n) terms of work (at most budget,
    checked before any).

    Entry t of a truncated product reads only entries <= t of its factors,
    so entry m - 1 here is bit for bit the value a powering truncated at
    degree m - 1 gives: one powering at the largest m serves every smaller m.

    Float error, for beta >= 0, u = 2^-53 and np.exp, np.log and
    math.lgamma within 4 ulps: entry m - 1 is at least ln j_sum less
    2^-47 bit_length(n) (entry + 2 beta ln k!).  Every log-coefficient is
    >= 0 and entry 0 is exact.  Entry t >= 1 of a product, L = ln sum_i
    e^(s_i) with s_i = a[i] + b[t - i], is >= max s_i and >= ln(t + 1)
    >= ln 2, and moves by at most the largest move of an s_i: factors off
    by rho of their entries give rho L.  The product's own roundings add
    26u L: u L each for a + b, s_i - max s and max s + log; 8u for exp;
    ceil(log2(t + 1)) u for the sum tree; 8u ln(t + 1) for log (raising
    to EXP_FLOOR only adds).  The base is off by 10u, each factor comes
    from K <= 2 bit_length(n) - 2 products in a chain, and subtracting
    beta ln k! adds 10u of it and u of the entry: the error is at most
    2^-48 (K + 2) (ln j_sum + 2 beta ln k!)."""
    if M < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={M}, n={n}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    work = M * M * n.bit_length()
    if work > budget:
        raise BudgetExceededError(f"generating function needs {work} terms, budget {budget}")
    log_fact = np.array([math.lgamma(j + 1) for j in range(M)])
    mul = _LogSeriesProducts(M)
    power, base = None, beta * log_fact
    while True:
        if n & 1:
            power = base if power is None else mul(power, base)
        n >>= 1
        if not n:
            return power - beta * log_fact
        base = mul(base, base)


LOG_FLOAT_MAX = 709.0  # math.exp is finite below it (it overflows past ln(max float) = 709.78)


def _exp(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{what} does not fit in a float: ln {what} = {log_value!r}") from None


def j_sum(m: int, n: int, e: ExponentPair | None = None, beta: float | None = None,
          method: str = "gf", budget: int = 10**8) -> float:
    """Sum over the length-(m-1) index tuples of multiplicity^(-beta).

    beta defaults to the pair's derived exponent; the m = 1 sum (over the
    empty tuple) is 1.  "gf" is exp(log_j_sums), a ValueError naming ln j_sum
    past the float range; "naive" streams the multi-index set (at most budget
    items) and is the reference the tests hold "gf" to.
    """
    if beta is None:
        if e is None:
            raise ValueError("give an ExponentPair or an explicit beta")
        beta = e.beta
    if method == "gf":
        return _exp(float(log_j_sums(m, n, beta, budget)[-1]), "j_sum")
    if method != "naive":
        raise ValueError(f"unknown method {method!r}")
    card = lambda_card(m - 1, n)
    if card > budget:
        raise BudgetExceededError(f"naive path needs {card} items, budget {budget}")
    return math.fsum(float(multiplicity(a)) ** (-beta) for a in enumerate_lambda(m - 1, n))


# --- chi upper bounds -----------------------------------------------------


LINEAR_SOURCE = "exact at m = 1 (linear forms)"
SPLIT_SOURCE = "exact-count split (Cauchy-Schwarz + Parseval)"
TRANSFER_SOURCE = "transfer from q = p (B_q in n^(1/p - 1/q) B_p)"
FROBENIUS_SOURCE = "Frobenius-Hoelder (Banach polarization on l_2)"
FOURIER_SOURCE = "closed-form (Fourier quadratic form)"
LINEAR_SLACK = 2.0 ** -50  # relative narrowing of the m = 1 lower end (2 to 4 ulps)


@functools.cache
def _inv_exact(p: float) -> Fraction:
    """1/p exactly, as a fraction of the float exponent (1/inf = 0): an
    exponent made from these is exactly 0 where the real one is."""
    return Fraction(0) if p == INF else 1 / Fraction(p)


def _log_power_digits(n: int, x: Fraction) -> Decimal:
    """x ln n to 40 digits, exactly 0 at x = 0."""
    if not x:
        return Decimal(0)
    with localcontext(prec=40):
        return x.numerator * Decimal(n).ln() / x.denominator


def _power_lower(n: int, x: Fraction) -> float:
    """A lower end v of n^x for x >= 0: the 40-digit value less
    LINEAR_SLACK relative, rounded down, so neither this rounding nor the
    one of a K_1 or K_2 upper end v^(-1/m) made from it passes the true
    value; 1.0 at n^x = 1, and inf past the float range."""
    log_value = _log_power_digits(n, x)
    if not log_value:
        return 1.0
    with localcontext(prec=40):
        value = float((log_value - Decimal(LINEAR_SLACK)).exp())
    return value if value == INF else math.nextafter(value, 0.0)


def _linear_exponent(e: ExponentPair) -> Fraction:
    """max(0, 1/p - 1/q) as an exact fraction (_inv_exact), the exponent
    of chi(1, n; p, q).

    A linear form sum a_i z_i has sup norm ||a||_{p'} on the l_p ball and
    majorant sup ||a||_{q'} on the l_q ball, so chi(1, n; p, q) is the sup
    over a of ||a||_{q'} / ||a||_{p'}, which is n^max(0, 1/q' - 1/p')
    (a = e_1 when q' >= p', a flat when q' < p'), and 1/q' - 1/p' =
    1/p - 1/q."""
    return max(Fraction(0), _inv_exact(e.p) - _inv_exact(e.q))


def chi_linear(n: int, e: ExponentPair) -> float:
    """A lower end of chi(1, n; p, q) = n^max(0, 1/p - 1/q) (_power_lower):
    1.0 where chi = 1, and inf past the float range."""
    return _power_lower(n, _linear_exponent(e))


def chi_fourier(n: int, e: ExponentPair) -> float:
    """A lower end of chi(2, n; p, q) >= n^max(0, x) with x = 3/2 - 2/q -
    max(0, 1 - 2/p) (_power_lower, the exponent exact): 1.0 where x <= 0,
    and inf past the float range.

    Proof.  Let P(z) = z^T F z with F_jk = w^(jk), w = e^(2 pi i / n).
    F / sqrt(n) is unitary, so |P(z)| <= ||z||_2 ||F z||_2 = sqrt(n)
    ||z||_2^2, and on B_p ||z||_2^2 <= n^max(0, 1 - 2/p).  The coefficient
    of z_j^2 has modulus 1 and that of z_j z_k (j < k) modulus 2, so the
    majorant at x = |z| is (sum x_j)^2 = ||x||_1^2, whose sup on B_q is
    n^(2 - 2/q), at the flat point.  At p = q = 2 it is exactly sqrt(n),
    the Frobenius-Hoelder record's value."""
    x = (Fraction(3, 2) - 2 * _inv_exact(e.q)
         - max(Fraction(0), 1 - 2 * _inv_exact(e.p)))
    return _power_lower(n, max(Fraction(0), x))


class ChiUpperSource(NamedTuple):
    """A closed-form chi upper bound: its source string, the (p, q) it holds
    on, per m of a grid its float log and that log's error bound, or
    (inf, 0.0) at an m it does not cover, and log_tail(m0, n, e): a float
    tau >= sup over m > m0 of (ln of the bound) / m, float error included,
    or None where the record has no such bound."""

    source: str
    holds: Callable[[ExponentPair], bool]
    log_bounds: Callable[[list[int], int, ExponentPair], list[tuple[float, float]]]
    log_tail: Callable[[int, int, ExponentPair], float | None]


def _up(x: float) -> float:
    """x stepped one ulp up; a zero, which is exact wherever it is made
    here, stays 0."""
    return math.nextafter(x, INF) if x else x


def _linear_log_bounds(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, float]]:
    """The exact value at m = 1: its 40-digit log rounded once (error 2u)."""
    log_value = float(_log_power_digits(n, _linear_exponent(e))) if 1 in ms else INF
    return [(log_value, 2.0 ** -52 * log_value) if m == 1 else (INF, 0.0) for m in ms]


def _split_log_bounds(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, float]]:
    """Record A, the exact-count split, for q <= p: chi(m, n; p, q) <=
    |Lambda(m, n)|^x with x = max(0, 1/2 + 1/p - 1/q).

    Proof.  Let z be in B_q with moduli r_i, and P = sum c_a z^a.  Put
    w_i = r_i^(q/p) and y_i = r_i^(1 - q/p) (1 - q/p >= 0), so |z^a| =
    w^a y^a and sum w_i^p = sum r_i^q <= 1: w lies in B_p.  Cauchy-Schwarz,
    then Parseval for u -> P(w u) on the torus (w u lies in B_p):
        sum |c_a z^a| <= (sum |c_a|^2 w^2a)^(1/2) (sum y^2a)^(1/2)
                      <= ||P||_{B_p} h_m(v)^(1/2),  v = y^2,
    h_m the complete homogeneous symmetric polynomial of degree m.  Now
    sum v_i^s = sum r_i^q <= 1 with s = q / (2 (1 - q/p)) (s = inf at
    q = p, where v <= 1 entrywise).  If s <= 1, then sum v_i <= 1 and
    h_m(v) <= (sum v_i)^m <= 1.  If s >= 1, Hoelder over the |Lambda|
    terms gives h_m(v) <= |Lambda|^(1 - 1/s) h_m(v^s)^(1/s), and
    h_m(v^s) <= (sum v_i^s)^m <= 1; (1 - 1/s) / 2 = 1/2 + 1/p - 1/q.

    It never loses to the coefficient bound |Lambda| n^(m/p) that it
    replaced: x <= 1/2 + 1/p and |Lambda| <= n^m give |Lambda|^x <=
    |Lambda|^(1/2) n^(m/p).

    x is exact as a fraction of the float exponents, so x = 0 (region I,
    and p >= 2 at q = 1) gives the log 0 exactly, and no count is formed.
    Error: math.log of the integer within 4u of its log (rounding the
    integer to a float, then libm), float(x) and the product 2u: 16u of
    it."""
    x = max(Fraction(0), Fraction(1, 2) + _inv_exact(e.p) - _inv_exact(e.q))
    if not x:
        return [(0.0, 0.0)] * len(ms)
    logs = [float(x) * math.log(lambda_card(m, n)) for m in ms]
    return [(v, 2.0 ** -49 * v) for v in logs]


def _split_log_tail(m0: int, n: int, e: ExponentPair) -> float:
    """Record A's log at m0 + 1 over m0 + 1.  ln |Lambda(m, n)| = sum over
    j <= m of ln(1 + (n - 1)/j), a sum of terms that decrease in j, so
    their mean ln |Lambda(m, n)| / m decreases in m and its sup over
    m > m0 sits at m0 + 1.  Error: the record's, then the division (one
    ulp up each)."""
    [(v, error)] = _split_log_bounds([m0 + 1], n, e)
    return _up(_up(v + error) / (m0 + 1))


def _transfer_log_bounds(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, float]]:
    """Record B, the transfer, for q > p: chi(m, n; p, q) <=
    n^(m (1/p - 1/q)) chi(m, n; p, p), with chi(m, n; p, p) the least
    record that holds at (p, p).

    Proof.  Hoelder gives ||z||_p <= n^(1/p - 1/q) ||z||_q, so B_q lies in
    t B_p with t = n^(1/p - 1/q), and the majorant sup of a degree-m P on
    t B_p is t^m times its majorant sup on B_p, at most t^m chi(m, n; p, p)
    ||P||_{B_p}.  Record A's formula itself is false for q > p (its
    factorization needs 1 - q/p >= 0).

    It never loses to the coefficient bound: over |Lambda| n^(m/p), with
    record A at (p, p), it is n^(-m/q) |Lambda|^(-1/2) <= 1.

    The (p, p) log comes from log_chi_uppers, already rounded up.  Error:
    float(m (1/p - 1/q)) and the product 2u, math.log(n) 4u, the sum u:
    16u of the sum."""
    x = _inv_exact(e.p) - _inv_exact(e.q)
    base = [v for v, _ in log_chi_uppers(ms, n, ExponentPair(e.p, e.p))]
    logs = [float(m * x) * math.log(n) + v for m, v in zip(ms, base)]
    return [(v, 2.0 ** -49 * v) for v in logs]


def _transfer_log_tail(m0: int, n: int, e: ExponentPair) -> float:
    """(1/p - 1/q) ln n plus the least tail at (p, p): record B's log over
    m is exactly (1/p - 1/q) ln n plus the (p, p) end's log over m, and each
    (p, p) record's tail bounds that for m > m0.  Error: float(1/p - 1/q)
    and the product 2u, math.log(n) 4u, inside 2^-49 of the product; the
    sum one ulp up."""
    lead = float(_inv_exact(e.p) - _inv_exact(e.q)) * math.log(n)
    return _up(_up(lead * (1 + 2.0 ** -49)) + log_chi_tail(m0, n, ExponentPair(e.p, e.p)))


def _lemma_log_bounds(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, float]]:
    """The small-exponent lemma m e^(1 + (m-1)/p) (multiplicity sum)^(1/q'),
    for 1 <= q <= p <= 2.  At beta = 0 (q = p) every multiplicity^-beta is
    1, so the sum is the count |Lambda(m - 1, n)|, whose log is record A's
    (16u, as there).  Otherwise it comes from one powering at the largest m
    (its budget error first).  Error: log_j_sums's over q', plus 8u
    (log + ln (m-1)!) for the roundings here (6u log) and beta's: 1/q - 1/p
    loses digits for p near q, so beta is off by 3u q' + 2u beta, ln j_sum
    by that ln k!."""
    logs = [math.log(m) + 1.0 + (m - 1) * inv(e.p) for m in ms]
    if e.q == 1:
        # q' = inf: the l_q' aggregate degenerates to a sup, and every
        # multiplicity^(1/p - 1) is at most 1.
        return [(v, 2.0 ** -50 * v) for v in logs]
    w = inv(e.q_conj)
    if not e.beta:
        counts = [math.log(lambda_card(m - 1, n)) for m in ms]
        return [(v + s * w, w * 2.0**-49 * s + 2.0**-50 * v) for v, s in zip(logs, counts)]
    log_sums = log_j_sums(max(ms), n, e.beta).tolist()
    ends = [(v + log_sums[m - 1] * w, log_sums[m - 1], math.lgamma(m)) for v, m in zip(logs, ms)]
    return [(v, w * 2.0**-47 * n.bit_length() * (s + 2 * e.beta * f) + 2.0**-50 * (v + f))
            for v, s, f in ends]


def _lemma_log_tail(m0: int, n: int, e: ExponentPair) -> float:
    """For m > m0 >= 1 the lemma's log over m is at most
    (ln(m0+1) + 1)/(m0+1) + 1/p + (1/q') ln |Lambda(m0, n)| / m0.

    Proof.  (ln m + 1)/m decreases for m >= 1, and (m - 1)/(p m) <= 1/p.
    beta >= 0 on 1 <= q <= p, so every multiplicity^-beta is at most 1 and
    the multiplicity sum over the length-(m-1) tuples is at most
    |Lambda(m - 1, n)|.  Its log over m is at most its log over m - 1,
    which decreases in m - 1 >= m0 (record A's tail: a mean of decreasing
    terms).  At q = 1 the last term is absent.  Error: each of the three
    terms within 12u relative (the logs 4u each, lambda_card as a float,
    1/q' 3u, three divisions), the two sums 2u: inside 2^-48 of the total,
    then one ulp up."""
    tau = (math.log(m0 + 1) + 1.0) / (m0 + 1) + inv(e.p)
    if e.q > 1:
        tau += inv(e.q_conj) * math.log(lambda_card(m0, n)) / m0
    return _up(tau * (1 + 2.0 ** -48))


@functools.cache
def _frobenius_exponents(e: ExponentPair) -> tuple[float, float]:
    """Record C's exponents max(0, 1/p - 1/2) of n^m and 1/q' of the
    count, each an exact fraction rounded once: 0.0 exactly where it is
    0."""
    return (float(max(Fraction(0), _inv_exact(e.p) - Fraction(1, 2))),
            float(1 - _inv_exact(e.q)))


def _frobenius_log_bounds(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, float]]:
    """Record C, Frobenius-Hoelder, for 1 <= q <= 2 and any p:
    chi(m, n; p, q) <= n^(m max(0, 1/p - 1/2)) min(|Lambda(m, n)|,
    n^(m-1))^(1/q').

    Proof.  Let T be the symmetric tensor of P = sum c_a z^a, T_j =
    c_a / (m!/a!) for each j in [n]^m of type a, and s = ||P||_{B_2}.
    (i) max_j |T_j| <= s: on a Hilbert space the symmetric m-linear form
    has the norm of its polynomial (Banach, Studia Math. 7 (1938)).
    (ii) ||T||_F^2 <= n^(m-1) s^2: ||T||_F^2 = sum_j ||T(e_j, .)||_F^2,
    and by (i) each slice is a symmetric (m-1)-form of norm <= s, so
    induction on m gives it from ||a||_2 = s at m = 1.
    (ii') ||T||_F^2 <= |Lambda(m, n)| s^2: the mean of |P|^2 over the unit
    sphere of C^n is ||T||_F^2 / |Lambda(m, n)|.
    (iii) At x = |z| in B_q the majorant sum_a |c_a| x^a is sum_j |T_j|
    x_j1...x_jm, and Hoelder (q', q) bounds it by (sum_j |T_j|^q')^(1/q')
    ||x||_q^m; q' >= 2, so sum_j |T_j|^q' <= max_j |T_j|^(q'-2) ||T||_F^2
    <= s^q' min(|Lambda|, n^(m-1)).
    (iv) s <= n^(m max(0, 1/p - 1/2)) ||P||_{B_p}, since B_2 lies in
    n^max(0, 1/p - 1/2) B_p.

    Either branch of the min bounds the count, so the choice is only
    about tightness: where ln m! <= ln n, n^(m-1) is the smaller, since
    |Lambda(m, n)| >= n^m / m!, and it is taken without forming the
    count; at q = 1 (1/q' = 0) no count is formed.  At p = 2 the
    |Lambda| branch is record A's value, which then keeps its source.
    Error: math.log of an integer 4u, each exponent and each product u,
    the sum u: 16u of it."""
    lead, w = _frobenius_exponents(e)
    log_n = math.log(n)
    logs = []
    for m in ms:
        count = (m - 1) * log_n
        if w and math.lgamma(m + 1) > log_n:
            count = min(count, math.log(lambda_card(m, n)))
        logs.append(m * lead * log_n + w * count)
    return [(v, 2.0 ** -49 * v) for v in logs]


def _frobenius_log_tail(m0: int, n: int, e: ExponentPair) -> float:
    """max(0, 1/p - 1/2) ln n + (1/q') ln |Lambda(m0 + 1, n)| / (m0 + 1):
    record C's log over m is at most the first term plus (1/q')
    ln |Lambda(m, n)| / m, which decreases in m (record A's tail).  The
    n^(m-1) branch adds nothing past m0: (m - 1) ln n / m < ln n, and
    ln |Lambda(m, n)| / m <= ln n since |Lambda(m, n)| <= n^m.  Error: the
    logs 4u each, the exponents, products and division u each, the sum u:
    inside 2^-48 of the total, then one ulp up."""
    lead, w = _frobenius_exponents(e)
    tau = lead * math.log(n)
    if w:
        tau += w * math.log(lambda_card(m0 + 1, n)) / (m0 + 1)
    return _up(tau * (1 + 2.0 ** -48))


# Tried in order, so the first of equal ends names the source.  The m = 1
# record has no tail: it covers no m > m0 >= 1.
CHI_UPPER_SOURCES = (
    ChiUpperSource(LINEAR_SOURCE, lambda e: True, _linear_log_bounds, lambda m0, n, e: None),
    ChiUpperSource(SPLIT_SOURCE, lambda e: e.q <= e.p, _split_log_bounds, _split_log_tail),
    ChiUpperSource(TRANSFER_SOURCE, lambda e: e.q > e.p, _transfer_log_bounds,
                   _transfer_log_tail),
    ChiUpperSource("small-exponent lemma", lambda e: 1 <= e.q <= e.p <= 2, _lemma_log_bounds,
                   _lemma_log_tail),
    ChiUpperSource(FROBENIUS_SOURCE, lambda e: e.q <= 2, _frobenius_log_bounds,
                   _frobenius_log_tail),
)


def log_chi_uppers(ms: list[int], n: int, e: ExponentPair) -> list[tuple[float, str]]:
    """For each m of ms, an upper end of ln chi(m, n; p, q) and its source:
    the least over the CHI_UPPER_SOURCES holding at (p, q) of a source's
    log plus its error bound, rounded up (a log without error is exact).
    chi >= 1, so after a source whose logs are all exactly 0 no later
    one is evaluated (region I, and q = 1 at p >= 2, then form no count).
    ms and n are integers, numpy's too (operator.index refuses a float)."""
    ms, n = [operator.index(m) for m in ms], operator.index(n)
    if min(ms) < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={min(ms)}, n={n}")
    ends = []
    for src in CHI_UPPER_SOURCES:
        if src.holds(e):
            ends.append([(math.nextafter(v + error, INF) if error else v, src.source)
                         for v, error in src.log_bounds(ms, n, e)])
            if not any(v for v, _ in ends[-1]):
                break
    return [min(col, key=lambda end: end[0]) for col in zip(*ends)]


def log_chi_tail(m0: int, n: int, e: ExponentPair) -> float:
    """tau >= sup over m > m0 of ln chi(m, n; p, q) / m: the least log_tail
    over the CHI_UPPER_SOURCES holding at (p, q) that have one (record A or
    B always holds).  Each bounds its own record's log over m, and chi is
    at most each record, so the least bounds chi's."""
    m0, n = operator.index(m0), operator.index(n)
    if m0 < 1 or n < 1:
        raise ValueError(f"need m0 >= 1 and n >= 1, got m0={m0}, n={n}")
    tails = [src.log_tail(m0, n, e) for src in CHI_UPPER_SOURCES if src.holds(e)]
    return min(tau for tau in tails if tau is not None)


def chi_upper_ends(log_up: float, m: int) -> tuple[float, float]:
    """From an upper end log_up of ln chi(m, n; p, q), a chi upper end >=
    e^log_up (inf past the float range) and a K_m lower end <= e^(-log_up/m).
    Two ulp steps outward cover math.exp's one ulp, also across a power of
    two; the division is rounded up, and e^0 = 1 is exact."""
    if not log_up:
        return 1.0, 1.0
    root = math.nextafter(log_up / m, INF) if m > 1 else log_up
    try:
        up = math.nextafter(math.nextafter(math.exp(log_up), INF), INF)
    except OverflowError:
        up = INF
    return up, math.nextafter(math.nextafter(math.exp(-root), 0.0), 0.0)


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
    log_value = (float(log_j_sums(m, n, e.beta)[-1]) * inv(e.q_conj)
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

    @property
    def rate_label(self) -> str:
        """The rate as text, one string per rate: "1", "sqrt(log n)/sqrt(n)"
        or log(n)^a/n^b, each exponent to 17 significant digits (it parses
        back to the float)."""
        special = {(0.0, 0.0): "1", (0.5, 0.5): "sqrt(log n)/sqrt(n)"}
        return special.get((self.n_exponent, self.log_exponent),
                           f"log(n)^{self.log_exponent:.17g}/n^{self.n_exponent:.17g}")


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
        return RegionReport("II", 0.5 + (ip - iq), 0.5, flags)  # exactly 0.5 at p = q
    flags = () if q <= 2 else ("extrapolated",)
    return RegionReport("III", 1.0 - iq, 1.0 - ip, flags)


def rate(p: float, q: float, n: int) -> float:
    """Evaluate the classified region's rate expression at n (no constant)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rep = region_classify(p, q)
    if n <= sys.float_info.max:
        return math.log(n) ** rep.log_exponent / n**rep.n_exponent
    # n**x would convert n to a float: the same rate in logarithms
    return _exp(rep.log_exponent * math.log(math.log(n)) - rep.n_exponent * math.log(n), "rate")

