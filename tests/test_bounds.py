import csv
import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import bohr, bounds
from bohrlab.bohr import k_bracket, k_m_bracket
from bohrlab.bounds import (
    CHI_UPPER_SOURCES,
    FOURIER_SOURCE,
    LINEAR_SOURCE,
    POLARIZATION_SOURCE,
    SCHUR_SOURCE,
    SPLIT_SOURCE,
    TRANSFER_SOURCE,
    ExponentPair,
    chi_fourier,
    chi_linear,
    chi_upper_ends,
    conjugate,
    envelope_constant,
    inv,
    j_sum,
    lempoly_rhs,
    log_chi_tail,
    log_chi_uppers,
    log_j_sums,
    rate,
    region_classify,
)
from bohrlab.cli import parse_exponent, run
from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import lambda_card, partition_shapes
from bohrlab.optimize import OptConfig
from bohrlab.witness import Endpoint, brute_chi


def test_conjugates():
    assert conjugate(1.0) == math.inf
    assert conjugate(math.inf) == 1.0
    assert conjugate(2.0) == 2.0
    assert conjugate(4 / 3) == pytest.approx(4.0)
    assert inv(math.inf) == 0.0


def test_exponent_pair_beta():
    e = ExponentPair(2.0, 4 / 3)
    assert e.q_conj == pytest.approx(4.0)
    assert e.beta == pytest.approx(1.0)
    assert ExponentPair(2.0, 2.0).beta == 0.0
    assert ExponentPair(3.0, 3.0).beta == 0.0  # q' finite, diff 0
    with pytest.raises(ValueError):
        ExponentPair(0.5, 2.0)


def test_j_sum_values():
    for n in (2, 5, 9):
        assert j_sum(2, n, beta=0.7) == pytest.approx(float(n))
    assert j_sum(3, 2, beta=0.0) == pytest.approx(3.0)
    e = ExponentPair(2.0, 4 / 3)
    assert j_sum(3, 2, e) == pytest.approx(2.5)  # 1 + 2^{-1} + 1


def test_j_sum_m1_convention():
    assert j_sum(1, 10, beta=2.0) == 1.0


def test_j_sum_routes_agree():
    for m in range(1, 7):
        for n in range(1, 9):
            for beta in (0.0, 0.5, 1.0, 2.0):
                a = j_sum(m, n, beta=beta, method="naive")
                b = j_sum(m, n, beta=beta)
                assert a == pytest.approx(b, rel=1e-12)


def test_j_sum_matches_partition_shape_sum():
    # past the naive route's reach: group the tuples by the partition shape of
    # their exponents (every tuple of one shape has the same multiplicity)
    for n in (64, 1039):
        for m in [*range(1, 11), 20, 30, 40]:
            k = m - 1
            shapes = [(s.arrangements, math.factorial(k)
                       // math.prod(math.factorial(v) for v in s.parts))
                      for s in partition_shapes(k, n)]
            for beta in (0.0, 0.5, 2 / 3, 1.0, 2.0):
                ref = math.fsum(a * float(mult) ** (-beta) for a, mult in shapes)
                assert j_sum(m, n, beta=beta) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), M=st.integers(1, 60), n=st.integers(1, 2**40),
       beta=st.floats(-2.0, 2.0, allow_nan=False))
def test_one_powering_gives_every_smaller_degree(data, M, n, beta):
    # entry t of a truncated product reads only entries <= t of its factors
    sums = log_j_sums(M, n, beta)
    assert len(sums) == M
    for m in {1, M, data.draw(st.integers(1, M))}:
        assert sums[m - 1] == log_j_sums(m, n, beta)[-1]


def _log_series_mul_per_entry(a, b):
    # the per-entry log-sum-exp that the block products replaced: the oracle
    out = np.empty(len(a))
    for t in range(len(a)):
        s = a[: t + 1] + b[t::-1]
        top = s.max()
        out[t] = top + math.log(np.exp(s - top).sum())
    return out


def _log_j_sums_per_entry(M, n, beta):
    log_fact = np.array([math.lgamma(j + 1) for j in range(M)])
    power, base = None, beta * log_fact
    while True:
        if n & 1:
            power = base if power is None else _log_series_mul_per_entry(power, base)
        n >>= 1
        if not n:
            return power - beta * log_fact
        base = _log_series_mul_per_entry(base, base)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(1, 300), n=st.integers(1, 2**40), beta=st.floats(-2.0, 2.0))
def test_block_powering_matches_the_per_entry_loop(M, n, beta):
    np.testing.assert_allclose(log_j_sums(M, n, beta), _log_j_sums_per_entry(M, n, beta),
                               rtol=1e-13, atol=0)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), M=st.integers(1, 60), n=st.integers(1, 2**40),
       beta=st.floats(-2.0, 2.0), block=st.integers(1, 200))
def test_every_block_size_gives_the_same_bits(data, M, n, beta, block):
    # with blocks of at most `block` terms the products cut their entries
    # into many blocks (a single entry each below block = t + 1); no entry
    # changes, and one powering still gives every smaller degree
    whole = log_j_sums(M, n, beta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "POWERING_BLOCK", block)
        cut = log_j_sums(M, n, beta)
        for m in {1, M, data.draw(st.integers(1, M))}:
            assert cut[m - 1] == log_j_sums(m, n, beta)[-1] == whole[m - 1]
    assert cut.tobytes() == whole.tobytes()


def test_powering_memory_is_one_block():
    # the largest M the default budget admits at n = 2 (one squaring)
    tracemalloc.start()
    try:
        sums = log_j_sums(7000, 2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sums[-1] == pytest.approx(math.log(j_sum(7000, 2, beta=1.0, method="gf")))
    assert sums[1] == pytest.approx(math.log(2.0), rel=1e-15)  # j_sum(2, 2) = 2


def test_log_j_sums_budget_checked_first():
    with pytest.raises(BudgetExceededError):
        log_j_sums(10**4, 2**40, 1.0, budget=10**9)
    for bad in [(0, 4, 1.0), (3, 0, 1.0), (3, 4, math.inf)]:
        with pytest.raises(ValueError):
            log_j_sums(*bad)


def _wiener_source(source: str) -> tuple[int, int, str]:
    """m0, the dominant m and its record, read from a K lower end's source."""
    match = re.fullmatch(r"Wiener sum over all m \(dense to m0 = (\d+); dominant m = (\d+), (.+)\)",
                         source)
    assert match, source
    return int(match[1]), int(match[2]), match[3]


@pytest.mark.parametrize("p, q", [(2.0, 4 / 3), (1.5, 1.25), (2.0, 2.0), (2.0, 1.0),
                                  (4.0, 4.0), (math.inf, 2.0)])
@pytest.mark.parametrize("n", [64, 1039, 2**40])
@pytest.mark.parametrize("M", [1, 4, 7])
def test_k_bracket_lower_is_the_one_degree_at_a_time_value(p, q, n, M):
    # the lower end is the Wiener root over the source's dense range m0 with
    # the tail past it, whatever M (M_max bounds only the upper end's
    # witness degrees): the sum fits at it and not 2^-30 (1 + |ln r|)
    # above it, and the end is at least a third of the one-degree-at-a-time
    # value, the least K_m lower end U_m^(-1/m) over m <= m0 and e^-tau
    # past it
    e = ExponentPair(p, q)
    br = k_bracket(n, e, M, sign_budget=0)
    assert br.lower == k_bracket(n, e, 1, sign_budget=0).lower
    m0, top, record = _wiener_source(br.lower.source)
    ends = log_chi_uppers(list(range(1, m0 + 1)), n, e)
    logs, tau = [v for v, _ in ends], log_chi_tail(m0, n, e)
    assert record == ends[top - 1][1]
    if tau == 0 and not any(logs):
        assert br.lower.value == 1 / 3 and top == 1
        return
    t = bohr._wiener_root(logs, tau)
    assert br.lower.value == math.nextafter(math.nextafter(math.exp(t), 0.0), 0.0)
    assert top == 1 + max(range(m0), key=lambda i: (i + 1) * t + logs[i])  # the first of equals
    dense, tail, margin, _ = bohr._wiener_terms(t, logs, tau)
    assert (dense + tail) * (1 + margin) <= 0.5 and margin < 2.0 ** -30
    assert sum(bohr._wiener_terms(t + 2.0 ** -30 * (1 + abs(t)), logs, tau)[:2]) > 0.5
    one_degree = min(min(chi_upper_ends(v, m)[1] for m, v in enumerate(logs, 1)), math.exp(-tau))
    assert br.lower.value >= one_degree / 3 * (1 - 2.0 ** -30)


@pytest.mark.parametrize("p, q", [(2.0, 4 / 3), (1.5, 1.25), (2.0, 2.0), (2.0, 1.0),
                                  (4.0, 4.0), (math.inf, 2.0)])
@pytest.mark.parametrize("n", [64, 1039, 2**40])
@pytest.mark.parametrize("M", [1, 4, 7])
def test_k_bracket_upper_is_the_least_k_m_upper(p, q, n, M, monkeypatch):
    # the K_m upper ends come from the chi lower ends alone: the same value
    # and source as the K_m brackets give, and the lower end's powerings,
    # one per dense range m0 = 16, 32, ..., are the only ones (q = 1 needs
    # no sums, and q = p counts them)
    e = ExponentPair(p, q)
    calls = []
    monkeypatch.setattr(bounds, "log_j_sums", lambda *a: calls.append(a) or log_j_sums(*a))
    br = k_bracket(n, e, M, sign_budget=0)
    m0 = _wiener_source(br.lower.source)[0]
    assert len(calls) == ((m0 // bohr.WIENER_M0).bit_length() if 1 < q < p <= 2 else 0)
    upper = Endpoint(1 / 3, "K(disk) = 1/3 one-variable restriction")
    for m in range(1, M + 1):
        km = k_m_bracket(m, n, e, sign_budget=0).upper
        if km.value < upper.value:
            upper = replace(km, source=f"K_{m} upper ({km.source})")
    assert br.upper == upper


def test_j_sum_beta_zero_is_card():
    for m in range(2, 7):
        for n in range(1, 8):
            assert j_sum(m, n, beta=0.0) == pytest.approx(float(lambda_card(m - 1, n)))


def test_j_sum_budget():
    with pytest.raises(BudgetExceededError):
        j_sum(6, 8, beta=1.0, method="naive", budget=10)


SOURCES = {src.source: src for src in CHI_UPPER_SOURCES}


def _lemma_values(ms, n, e):
    ends = SOURCES["small-exponent lemma"].log_bounds(ms, n, e)
    assert all(0 < err < 1e-13 * (1 + v) for v, err in ends)
    return [math.exp(v) for v, _ in ends]


def test_chi_upper_small_pq():
    # the lemma source: m e^(1 + (m-1)/p) (multiplicity sum)^(1/q'), on 1 <= q <= p <= 2 only
    lemma = SOURCES["small-exponent lemma"]
    e = ExponentPair(2.0, 2.0)
    assert _lemma_values([1], 4, e) == pytest.approx([math.e], rel=1e-14)
    assert _lemma_values([2], 3, e) == pytest.approx([2 * math.exp(1.5) * math.sqrt(3)], rel=1e-14)
    assert lemma.holds(e) and lemma.holds(ExponentPair(2.0, 1.0))
    assert not lemma.holds(ExponentPair(3.0, 2.0)) and not lemma.holds(ExponentPair(1.5, 2.0))


def test_chi_upper_q1_degenerates():
    # at q = 1 the lemma degenerates to m e^(1 + (m-1)/p)
    assert _lemma_values([3], 100, ExponentPair(2.0, 1.0)) == pytest.approx([3 * math.exp(2.0)],
                                                                           rel=1e-14)


def test_lemma_source():
    lemma = SOURCES["small-exponent lemma"]
    e = ExponentPair(2.0, 2.0)
    assert _lemma_values([2, 1], 3, e) == pytest.approx(
        [2 * math.exp(1.5) * math.sqrt(3), math.e], rel=1e-14)
    # the one-degree evaluations are the grid's entries: one powering serves all
    grid = [1, 2, 5, 9]
    assert lemma.log_bounds(grid, 7, ExponentPair(2.0, 4 / 3)) == [
        lemma.log_bounds([m], 7, ExponentPair(2.0, 4 / 3))[0] for m in grid]


def test_lemma_at_beta_zero_is_the_count():
    # at q = p the multiplicity sum is the count |Lambda(m - 1, n)|: its log
    # matches the powering within both stated errors, and a degree past the
    # powering budget answers (as `bound chiupper --m 5000` in test_cli)
    lemma = SOURCES["small-exponent lemma"]
    ms = list(range(1, 201))
    for p in (2.0, 1.5, 1.0):
        e = ExponentPair(p, p)
        for n in (2, 64, 1039, 2**40):
            sums, w = log_j_sums(200, n, 0.0).tolist(), inv(e.q_conj)
            for m, (v, err) in zip(ms, lemma.log_bounds(ms, n, e)):
                base = math.log(m) + 1.0 + (m - 1) * inv(p)
                powered = base + sums[m - 1] * w
                powered_err = (w * 2.0**-47 * n.bit_length() * sums[m - 1]
                               + 2.0**-50 * (base + math.lgamma(m)))
                assert abs(v - powered) <= err + powered_err, (p, n, m)
    [(v, _)] = lemma.log_bounds([5000], 64, ExponentPair(2.0, 2.0))
    assert v == pytest.approx(math.log(5000) + 1 + 4999 / 2 + math.log(lambda_card(4999, 64)) / 2)


def test_lempoly_rhs():
    assert lempoly_rhs(2, 3, math.inf, (1,)) == pytest.approx(2 * math.e)
    assert lempoly_rhs(3, 2, 1.0, (1, 1)) == pytest.approx(3 * math.e**3)
    with pytest.raises(ValueError):
        lempoly_rhs(1, 2, 2.0, ())


def test_coefficient_chi_upper():
    # the coefficient bound |Lambda(m, n)| n^(m/p), no longer a record: at
    # every (p, q) the least record is at most its log, rounded up
    for p, q in PAIRS_50:
        e = ExponentPair(p, q)
        for n in (1, 2, 64, 1039, 2**40):
            ms = list(range(1, 41))
            with localcontext(prec=50):
                for m, (log_up, _) in zip(ms, log_chi_uppers(ms, n, e)):
                    coefficient = (Decimal(lambda_card(m, n)).ln()
                                   + _dec(m * _inv_fraction(p)) * Decimal(n).ln())
                    assert Decimal(log_up) <= coefficient, (p, q, n, m)
    # where it was the source, the split record is now: 15 -> 1 in region I,
    # 3 -> |Lambda(2, 2)|^(1/2) at p = q = inf; at p = q = 2 (6 at first)
    # the Schur-Hadamard record's 2^(1/2) is less
    for (m, n, e), value, source in [((2, 5, ExponentPair(math.inf, 2.0)), 1.0, SPLIT_SOURCE),
                                     ((2, 2, ExponentPair(math.inf, math.inf)), math.sqrt(3),
                                      SPLIT_SOURCE),
                                     ((2, 2, ExponentPair(2.0, 2.0)), math.sqrt(2),
                                      SCHUR_SOURCE)]:
        [(log_value, src)] = log_chi_uppers([m], n, e)
        assert src == source
        assert math.exp(log_value) == pytest.approx(value)


def test_log_chi_uppers_takes_numpy_integers():
    e = ExponentPair(2.0, 1.5)
    ends = log_chi_uppers([2, 3], 16, e)
    assert log_chi_uppers(list(np.array([2, 3])), np.int64(16), e) == ends
    assert log_chi_uppers(np.array([2, 3], dtype=np.int64), 16, e) == ends
    with pytest.raises(TypeError):
        log_chi_uppers([2.0], 16, e)
    with pytest.raises(TypeError):
        log_chi_uppers([2], 16.0, e)


def test_split_record_fails_for_q_above_p():
    # record A holds only for q <= p: at m = 4, n = 2, q = inf the brute
    # oracle's raw ratio passes |Lambda(4, 2)|^(1/2 + 1/p) = 5^(1/2 + 1/p)
    # by more than 4% (6.20 > 5, 4.23 > 3.82, 3.51 > 3.34), and the
    # transfer record stays above it
    split, transfer = SOURCES[SPLIT_SOURCE], SOURCES[TRANSFER_SOURCE]
    cfg = OptConfig(16, 150, 3)
    for p in (2.0, 3.0, 4.0):
        e = ExponentPair(p, math.inf)
        assert not split.holds(e) and transfer.holds(e)
        raw = brute_chi(4, 2, e, samples=1000, seed=3, cfg=cfg).raw
        assert raw > 1.04 * 5 ** (0.5 + 1 / p)
        [(log_up, src)] = log_chi_uppers([4], 2, e)
        assert src == TRANSFER_SOURCE and raw <= chi_upper_ends(log_up, 4)[0]
    assert split.holds(ExponentPair(2.0, 2.0)) and not transfer.holds(ExponentPair(2.0, 2.0))


SOUNDNESS_PS = [1.0, 1.25, 1.5, 2.0, 3.0, math.inf]
SOUNDNESS_QS = [1.0, 1.2, 4 / 3, 1.5, 2.0, 4.0, math.inf]
SOUNDNESS_CELLS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 6), (4, 2), (5, 2)]


@pytest.mark.parametrize("p", SOUNDNESS_PS)
def test_split_and_transfer_hold_against_brute(p):
    # the brute oracle's raw ratio (an estimate of chi from below) never
    # passes the split or transfer record where it holds (336 cases), nor
    # the polarization-Hoelder record at q <= p, or the Schur-Hadamard
    # record at q <= 2 (where it is 1 the ratio meets it; at (2, 2), m = 2
    # and n in {2, 4} the record is exact and the ratio meets it)
    cfg = OptConfig(16, 150, 3)
    records = [SOURCES[s] for s in (SPLIT_SOURCE, TRANSFER_SOURCE, POLARIZATION_SOURCE,
                                    SCHUR_SOURCE)]
    for q, (m, n) in itertools.product(SOUNDNESS_QS, SOUNDNESS_CELLS):
        e = ExponentPair(p, q)
        raw = brute_chi(m, n, e, samples=1000, seed=3, cfg=cfg).raw
        for src in records:
            if src.holds(e):
                [(v, err)] = src.log_bounds([m], n, e)
                assert raw <= chi_upper_ends(math.nextafter(v + err, math.inf), m)[0], (q, m, n)


def test_linear_case_dominated():
    # at m = 1 the upper bound is the exact value n^max(0, 1/p - 1/q), and
    # both closed forms dominate it
    for n in (1, 2, 8, 64, 1037):
        for (p, q) in [(2.0, 2.0), (2.0, 4 / 3), (4 / 3, 4 / 3), (4 / 3, 2.0), (2.0, 4.0),
                       (1.0, math.inf), (math.inf, 1.0)]:
            e = ExponentPair(p, q)
            exact = max(1.0, n ** (inv(e.q_conj) - inv(e.p_conj)))
            [(log_value, src)] = log_chi_uppers([1], n, e)
            assert src == LINEAR_SOURCE
            assert math.exp(log_value) == pytest.approx(exact, rel=1e-14)
            assert chi_linear(n, e) == pytest.approx(exact, rel=1e-14)
            assert lambda_card(1, n) * n ** inv(p) >= exact
            if q <= p <= 2:
                [(lemma, _)] = SOURCES["small-exponent lemma"].log_bounds([1], n, e)
                assert math.exp(lemma) >= exact - 1e-12


def _chi_linear_digits(n, p, q):
    # n^max(0, 1/p - 1/q) to 60 digits, the exponent exact as a fraction of
    # the float exponents
    x = max(Fraction(0), _inv_fraction(p) - _inv_fraction(q))
    with localcontext(prec=60):
        return Decimal(n) ** (Decimal(x.numerator) / x.denominator)


@pytest.mark.parametrize("p, q, n", [(4 / 3, 2.0, 32), (1.0, math.inf, 2**40), (1.5, 4.0, 10**6),
                                     (4 / 3, 4.0, 1037), (2.0, math.inf, 3), (1.0, 1.01, 10**300),
                                     (2.0, 2.0, 1000), (math.inf, 1.0, 7)])
def test_linear_ends_hold_the_true_value(p, q, n):
    # the m = 1 chi ends and the K ends made from them are on their side of
    # the true value, not an ulp past it; the upper end comes through its
    # log, so the bracket is a few ulps of the log wide
    e = ExponentPair(p, q)
    true = _chi_linear_digits(n, p, q)
    cb = k_m_bracket(1, n, e, sign_budget=0)
    chi_lo, chi_up = chi_linear(n, e), chi_upper_ends(log_chi_uppers([1], n, e)[0][0], 1)[0]
    assert Decimal(chi_lo) <= true <= Decimal(chi_up)
    assert Decimal(cb.lower.value) <= 1 / true <= Decimal(cb.upper.value)
    assert Decimal(k_bracket(n, e, 1, sign_budget=0).lower.value) <= (1 / true) / 3
    assert chi_up / chi_lo - 1 <= 1e-15 * (4 + math.log(chi_up))
    if true == 1:
        assert chi_lo == chi_up == 1.0


def test_linear_value_past_the_float_range():
    e = ExponentPair(1.0, math.inf)
    assert chi_linear(10**400, ExponentPair(2.0, 2.0)) == 1.0
    assert chi_linear(10**400, e) == math.inf
    assert chi_linear(10**400, ExponentPair(1.0, 1.01)) == pytest.approx(10 ** (400 / 101))
    [(log_value, src)] = log_chi_uppers([1], 10**400, e)
    assert log_value == pytest.approx(400 * math.log(10), rel=1e-15) and src == LINEAR_SOURCE


def _no_count(*args):
    raise AssertionError("a count |Lambda(m, n)| was formed")


def test_zero_exponents_form_no_count(monkeypatch):
    # record A's exponent is exactly 0 in region I and at q = 1, p >= 2:
    # the logs are exactly 0 and no count is formed, even at n = 10^309 and
    # m <= 300; once every log is 0, log_chi_uppers evaluates no later
    # record
    monkeypatch.setattr(bounds, "lambda_card", _no_count)
    ms, huge = list(range(1, 301)), 10**309
    for p, q in [(math.inf, 2.0), (4.0, 4 / 3), (2.0, 1.0), (math.inf, 1.0)]:
        e = ExponentPair(p, q)
        assert SOURCES[SPLIT_SOURCE].log_bounds(ms, huge, e) == [(0.0, 0.0)] * 300
        assert log_chi_uppers(ms, huge, e) == [(0.0, LINEAR_SOURCE)] + [(0.0, SPLIT_SOURCE)] * 299


def test_envelope_constant():
    e = ExponentPair(2.0, 2.0)
    rep = envelope_constant(2, 8, e)
    expected = (math.sqrt(8) * math.log(8) / 8) ** 0.5
    assert rep.value == pytest.approx(expected)
    rep1 = envelope_constant(1, 8, e)
    assert rep1.value == pytest.approx(math.sqrt(math.log(8) / 8))
    assert "small-m" in rep1.regimes  # beta = 0
    with pytest.raises(ValueError):
        envelope_constant(2, 2, e)


def test_region_classify():
    rep = region_classify(math.inf, math.inf)
    assert rep.tag == "II"
    assert (rep.n_exponent, rep.log_exponent) == (0.5, 0.5)

    r2 = region_classify(2.0, 2.0)
    r3_exps = (1.0 - 0.5, 1.0 - 0.5)
    assert r2.tag == "II" and "II-III-seam" in r2.flags
    assert (r2.n_exponent, r2.log_exponent) == r3_exps  # formulas coincide at p=2

    rI = region_classify(4.0, 4 / 3)
    assert rI.tag == "I" and "I-II-boundary" in rI.flags
    assert rate(4.0, 4 / 3, 1000) == 1.0

    assert region_classify(5.0, 1.0).tag == "Q1"
    assert rate(5.0, 1.0, 1000) == 1.0

    rX = region_classify(1.5, 4.0)
    assert rX.tag == "III" and "extrapolated" in rX.flags

    assert region_classify(math.inf, 2.0).tag == "I"


def test_region_total_and_seam():
    grid = [1.0, 4 / 3, 2.0, 3.0, math.inf]
    for p in grid:
        for q in grid:
            rep = region_classify(p, q)
            assert rep.tag in ("I", "II", "III", "Q1")
    # II and III exponents agree at p=2 for every q
    for q in (1.5, 2.0):
        rep = region_classify(2.0, q)
        assert rep.n_exponent == pytest.approx(1.0 - 1.0 / q)
        assert rep.log_exponent == pytest.approx(0.5)


def test_rate_values_and_monotone():
    assert rate(2.0, 1.5, 100) == pytest.approx(
        math.log(100) ** 0.5 / 100 ** (1 / 3)
    )
    for (p, q) in [(math.inf, math.inf), (2.0, 1.5)]:
        vals = [rate(p, q, n) for n in (8, 16, 32, 64)]
        assert all(vals[i + 1] <= vals[i] for i in range(3))


# --- closed-form ends against their 50-digit values ---------------------------


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / x.denominator


_LN_FACTORIALS = [Decimal(0)]


def _ln_factorial(k: int) -> Decimal:
    # ln k! as the running sum of ln j over j <= k; call in a 50-digit context
    while len(_LN_FACTORIALS) <= k:
        _LN_FACTORIALS.append(_LN_FACTORIALS[-1] + Decimal(len(_LN_FACTORIALS)).ln())
    return _LN_FACTORIALS[k]


@functools.cache
def _gf_log_j_sums(K: int, n: int, beta: Fraction) -> tuple[Decimal, ...]:
    # ln j_sum(k + 1, n) for k <= K from (k!)^-beta [x^k] (sum_j (j!)^beta x^j)^n,
    # powered in the decimal context of the caller (50 digits): the
    # identity test_j_sum_matches_partition_shape_sum checks, for k past
    # the reach of the partition shapes
    b = _dec(beta)
    base = [(b * _ln_factorial(j)).exp() for j in range(K + 1)]
    power = None
    while True:
        if n & 1:
            power = base if power is None else [sum(power[i] * base[t - i] for i in range(t + 1))
                                                for t in range(K + 1)]
        n >>= 1
        if not n:
            return tuple(c.ln() - b * _ln_factorial(k) for k, c in enumerate(power))
        base = [sum(base[i] * base[t - i] for i in range(t + 1)) for t in range(K + 1)]


@functools.cache
def _exact_log_j_sum(k: int, n: int, beta: Fraction) -> Decimal:
    # over the partition shapes of the exponents, as in
    # test_j_sum_matches_partition_shape_sum, up to k = 20; past it from the
    # generating function at the next power of two; at beta = 0 the count
    # |Lambda(k, n)|.  Call in a 50-digit context
    if not beta:
        return _ln_card(k, n)
    if k > 20:
        return _gf_log_j_sums((1 << k.bit_length()) - 1, n, beta)[k]
    b = _dec(beta)
    return sum((s.arrangements * (-b * (_ln_factorial(k) - sum(map(_ln_factorial, s.parts)))).exp()
                for s in partition_shapes(k, n)), Decimal(0)).ln()


_LN_CARDS: dict[int, list[Decimal]] = {}


def _ln_card(m: int, n: int) -> Decimal:
    # ln |Lambda(m, n)| as the running sum of ln((n + j - 1) / j) over j <= m;
    # call in a 50-digit context
    cards = _LN_CARDS.setdefault(n, [Decimal(0)])
    while len(cards) <= m:
        j = len(cards)
        cards.append(cards[-1] + (Decimal(n + j - 1) / j).ln())
    return cards[m]


def _inv_fraction(r: float) -> Fraction:
    return Fraction(0) if r == math.inf else 1 / Fraction(r)


def _exact_log_frobenius(m, n, p, q) -> Decimal:
    # the Frobenius-Hoelder bound n^(m max(0, 1/p - 1/2)) min(|Lambda(m, n)|,
    # n^(m-1))^(1/q') at q <= 2, which the records dominate:
    # m max(0, 1/p - 1/2) ln n + (1/q') min(ln |Lambda(m, n)|, (m - 1) ln n);
    # call in a 50-digit context
    ln_n = Decimal(n).ln()
    lead = _dec(m * max(Fraction(0), _inv_fraction(p) - Fraction(1, 2))) * ln_n
    return lead + _dec(1 - _inv_fraction(q)) * min(_ln_card(m, n), (m - 1) * ln_n)


def _exact_log_polarization(m, n, q) -> Decimal:
    # ln(m^m / m!) + (m - 1)(1 - 1/q) ln n; call in a 50-digit context
    return (m * Decimal(m).ln() - _ln_factorial(m)
            + _dec((m - 1) * (1 - _inv_fraction(q))) * Decimal(n).ln())


def _exact_log_schur(m, n, p, q) -> Decimal:
    # (m max(0, 1/p - 1/2) + (m - 2)(1 - 1/q) + max(0, 3/2 - 2/q)) ln n, m >= 2;
    # call in a 50-digit context
    inv_q = _inv_fraction(q)
    x = (m * max(Fraction(0), _inv_fraction(p) - Fraction(1, 2)) + (m - 2) * (1 - inv_q)
         + max(Fraction(0), Fraction(3, 2) - 2 * inv_q))
    return _dec(x) * Decimal(n).ln()


def _exact_log_chi_upper(m, n, p, q, count_past=math.inf) -> Decimal:
    """ln of the least closed-form chi upper bound that holds at the float
    exponents (as exact fractions); for m > count_past the lemma's
    multiplicity sum is replaced by its upper bound |Lambda(m - 1, n)|
    (beta >= 0), the bound its tail rests on.  Call in a 50-digit context."""
    inv_p, inv_q = _inv_fraction(p), _inv_fraction(q)
    ln_n, ln_card = Decimal(n).ln(), _ln_card(m, n)
    ends = []
    if m == 1:
        ends.append(_dec(max(Fraction(0), inv_p - inv_q)) * ln_n)
    if q <= p:  # exact-count split
        ends.append(_dec(max(Fraction(0), Fraction(1, 2) + inv_p - inv_q)) * ln_card)
    else:  # transfer from q = p
        ends.append(_dec(m * (inv_p - inv_q)) * ln_n + _exact_log_chi_upper(m, n, p, p, count_past))
    if q <= p:  # polarization-Hoelder
        ends.append(_exact_log_polarization(m, n, q))
    if q <= 2 and m > 1:  # Schur-Hadamard
        ends.append(_exact_log_schur(m, n, p, q))
    if q <= p <= 2:
        lemma = Decimal(m).ln() + 1 + _dec((m - 1) * inv_p)
        if q > 1:
            inv_qc = 1 - inv_q
            beta = (inv_q - inv_p) / inv_qc if m <= count_past else Fraction(0)
            lemma += _dec(inv_qc) * _exact_log_j_sum(m - 1, n, beta)
        ends.append(lemma)
    return min(ends)


PAIRS_50 = [(math.inf, 4 / 3), (4.0, 4.0), (3.0, 2.0), (2.0, 2.0), (2.0, 4 / 3), (1.5, 1.25),
            (1.5, 1.0), (4 / 3, 2.0), (3.0, 1.2), (math.inf, math.inf), (2.0, 4.0), (1.0, math.inf),
            (1.25, 1.5)]


@pytest.mark.parametrize("p, q", PAIRS_50)
def test_closed_form_chi_ends_hold_their_exact_value(p, q):
    # every chi upper end and K_m lower end made from a closed form sits on
    # its side of the 50-digit value: m <= 4 up to n = 1000, and the lemma's
    # cells with m <= 6 at n <= 16
    e = ExponentPair(p, q)
    cells = [(range(1, 5), n) for n in range(1, 1001, 7)] + [(range(1, 7), n) for n in range(2, 17)]
    with localcontext(prec=50):
        for ms, n in cells:
            for m, (log_up, _) in zip(ms, log_chi_uppers(list(ms), n, e)):
                exact = _exact_log_chi_upper(m, n, p, q)
                chi_up, k_m_low = chi_upper_ends(log_up, m)
                assert Decimal(log_up) >= exact and Decimal(chi_up) >= exact.exp(), (m, n)
                assert Decimal(k_m_low) <= (-exact / m).exp(), (m, n)


@pytest.mark.parametrize("p, q", PAIRS_50)
@pytest.mark.parametrize("n", [64, 1039, 2**40])
def test_k_lower_ends_hold_their_exact_value(p, q, n):
    # at the K lower end r, the Wiener sum of r^m U_m over m <= 2000 is at
    # most 1/2, each U_m the 50-digit least record (the lemma's multiplicity
    # sum exact over the dense range m0, its count past it); each K_m lower
    # end is at most its exact value
    e = ExponentPair(p, q)
    br = k_bracket(n, e, 3, sign_budget=0)
    m0 = _wiener_source(br.lower.source)[0]
    with localcontext(prec=50):
        log_r = Decimal(br.lower.value).ln()
        total = sum(((m * log_r + _exact_log_chi_upper(m, n, p, q, count_past=m0)).exp()
                     for m in range(1, 2001)), Decimal(0))
        assert total <= Decimal(1) / 2, total
        for m in range(1, 4):
            assert Decimal(k_m_bracket(m, n, e, sign_budget=0).lower.value) <= \
                (-_exact_log_chi_upper(m, n, p, q) / m).exp()


@pytest.mark.parametrize("p, q", PAIRS_50)
def test_log_tails_bound_every_later_degree(p, q, monkeypatch):
    # each record's log_tail(m0) is at least its log over m at every
    # m0 < m <= 2000: the 50-digit value for records A, B, D and E and for
    # the lemma at beta = 0, else the lemma's float log plus its error bound
    # (powered past the default budget at n = 2^40); the m = 1 record has
    # none
    monkeypatch.setattr(bounds, "J_SUM_BUDGET", 10**9)
    e = ExponentPair(p, q)
    inv_p, inv_q = _inv_fraction(p), _inv_fraction(q)
    ms = list(range(1, 2001))
    for n in (2, 64, 1039, 2**40):
        for src in (src for src in CHI_UPPER_SOURCES if src.holds(e)):
            with localcontext(prec=50):
                if src.source == LINEAR_SOURCE:
                    assert src.log_tail(8, n, e) is None
                    continue
                if src.source == SPLIT_SOURCE:
                    x = _dec(max(Fraction(0), Fraction(1, 2) + inv_p - inv_q))
                    logs = [x * _ln_card(m, n) for m in ms]
                elif src.source == TRANSFER_SOURCE:
                    ln_n = Decimal(n).ln()
                    logs = [_dec(m * (inv_p - inv_q)) * ln_n + _exact_log_chi_upper(m, n, p, p)
                            for m in ms]
                elif src.source == POLARIZATION_SOURCE:
                    logs = [_exact_log_polarization(m, n, q) for m in ms]
                elif src.source == SCHUR_SOURCE:  # m = 1 is not read: m0 >= 8
                    logs = [_exact_log_schur(m, n, p, q) for m in ms]
                elif e.beta:
                    logs = [Decimal(v) + Decimal(err) for v, err in src.log_bounds(ms, n, e)]
                else:  # the lemma at q = p: the multiplicity sum is the count
                    logs = [Decimal(m).ln() + 1 + _dec((m - 1) * inv_p)
                            + _dec(1 - inv_q) * _ln_card(m - 1, n) for m in ms]
                for m0 in (8, 16, 64):
                    tau = src.log_tail(m0, n, e)
                    assert Decimal(tau) >= max(logs[m - 1] / m for m in ms[m0:]), (src.source, n, m0)
                    assert log_chi_tail(m0, n, e) <= tau


@pytest.mark.parametrize("p, q", [(p, q) for p, q in PAIRS_50 if q <= 2])
def test_frobenius_bound_is_dominated(p, q):
    # the Frobenius-Hoelder bound is never below the least record, in 50
    # digits (up to 10^-40 of rounding, where both are the same real
    # value): its |Lambda| branch is at least record A (q <= p) or B
    # (q > p), and its n^(m-1) branch is at least record E, equal at q = 2,
    # where E's float log is within its stated error of that branch
    e = ExponentPair(p, q)
    ms = list(range(1, 41))
    for n in (1, 2, 3, 16, 1039, 2**40):
        schur = SOURCES[SCHUR_SOURCE].log_bounds(ms, n, e)
        with localcontext(prec=50):
            ln_n = Decimal(n).ln()
            for m, (v, err) in zip(ms, schur):
                frobenius = _exact_log_frobenius(m, n, p, q)
                assert _exact_log_chi_upper(m, n, p, q) <= frobenius + Decimal("1e-40"), (n, m)
                if q == 2 and m > 1:
                    branch = (_dec(m * max(Fraction(0), _inv_fraction(p) - Fraction(1, 2))) * ln_n
                              + (m - 1) * ln_n / 2)
                    assert abs(_exact_log_schur(m, n, p, q) - branch) <= Decimal("1e-40")
                    assert abs(Decimal(v) - branch) <= Decimal(err), (n, m)


def test_every_record_is_somewhere_the_least():
    # each record but the exact m = 1 value is, at some cell, below every
    # other record that holds there by more than 1e-9 relative (logs plus
    # error bounds, as log_chi_uppers takes them): none is dead weight,
    # e.g. A at (1, 1, n = 2, m = 2), E at (1, 6/5, 2, 2) and the lemma at
    # (5/4, 1, 1039, 32)
    ms, least = list(range(1, 41)), set()
    for p, q in itertools.product(SOUNDNESS_PS, SOUNDNESS_QS):
        e = ExponentPair(p, q)
        records = [src for src in CHI_UPPER_SOURCES if src.holds(e)]
        for n in (2, 3, 16, 1039, 2**40):
            logs = {src.source: [v + err for v, err in src.log_bounds(ms, n, e)]
                    for src in records}
            for i, src in itertools.product(range(len(ms)), records):
                v = logs[src.source][i]
                if all(v < (1 - 1e-9) * w[i] for s, w in logs.items() if s != src.source):
                    least.add(src.source)
    assert least == {src.source for src in CHI_UPPER_SOURCES} - {LINEAR_SOURCE}


def test_lemma_past_its_budget_leaves_the_other_records():
    # past the largest m whose powering fits J_SUM_BUDGET (m^2 bit_length(n)
    # terms) the lemma bounds nothing, so at (2, 3/2), n = 2, m = 10^4
    # record A answers, |Lambda(10^4, 2)|^(1/3) = 10001^(1/3), instead of
    # a budget error; the entries within the budget are those of a call
    # that asks only for them
    e = ExponentPair(2.0, 1.5)
    top = math.isqrt(bounds.J_SUM_BUDGET // 2)
    assert SOURCES["small-exponent lemma"].log_bounds([3, top + 1], 2, e)[1] == (math.inf, 0.0)
    ends = log_chi_uppers([3, 50, top, 10**4], 2, e)
    assert ends[:2] == log_chi_uppers([3, 50], 2, e)
    assert ends[3][1] == SPLIT_SOURCE
    assert chi_upper_ends(ends[3][0], 10**4)[0] == pytest.approx(10001 ** (1 / 3), rel=1e-14)


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582")


def test_polarization_record_past_the_exact_factorials():
    # record D forms m! up to POLARIZATION_EXACT_M and takes Robbins' bound
    # m - ln(2 pi m)/2 - 1/(12m + 1) past it: its log plus error is at least
    # the 50-digit ln(m^m / m!), and above it by at most the error twice
    # (and Robbins' gap 1/(144 m^2) past the exact range); at m = 10^6 and
    # 10^12 it holds Robbins' bound itself without forming m!
    src, e = SOURCES[POLARIZATION_SOURCE], ExponentPair(1.0, 1.0)
    ms = [1, 2, 3, 255, 256, 257, 300, 1000, 2000]
    with localcontext(prec=50):
        for m, (v, err) in zip(ms, src.log_bounds(ms, 7, e)):
            exact = _exact_log_polarization(m, 7, 1.0)
            gap = Decimal(1) / (144 * m * m) if m > bounds.POLARIZATION_EXACT_M else 0
            assert exact <= Decimal(v) + Decimal(err) <= exact + gap + 2 * Decimal(err), m
        ms = [10**6, 10**12]
        for m, (v, err) in zip(ms, src.log_bounds(ms, 2, e)):
            robbins = m - (2 * PI_50 * m).ln() / 2 - Decimal(1) / (12 * m + 1)
            assert Decimal(v) - Decimal(err) <= robbins <= Decimal(v) + Decimal(err), m


def test_sweep_upper_ends_hold_their_exact_value(tmp_path):
    # the chi upper ends sweep prints: chi(3, 4; inf, 4/3) <= 1 (region I),
    # and chi(3, 4; 3/2, 4) from the transfer record
    for p, q in [("inf", "4/3"), ("2", "4/3"), ("3/2", "5/4"), ("3", "2"), ("3/2", "4")]:
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--m-grid", "1,2,3,4,5", "--n-grid", "2,3,4,16", "--p", p, "--q", q,
                    "--budget", "0", "--restarts", "1", "--iters", "1", "--out", str(out)]) == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()[1:]))
        col = {h: i for i, h in enumerate(header)}
        with localcontext(prec=50):
            for r in rows:
                m, n = int(r[col["m"]]), int(r[col["n"]])
                exact = _exact_log_chi_upper(m, n, parse_exponent(p), parse_exponent(q))
                assert Decimal(r[col["upper"]]) >= exact.exp(), r
                if (p, q, m, n) == ("inf", "4/3", 3, 4):
                    assert r[col["upper"]] == "1" and r[col["upper_src"]] == SPLIT_SOURCE
                if (p, q, m, n) == ("3/2", "4", 3, 4):
                    assert r[col["upper_src"]] == TRANSFER_SOURCE


@pytest.mark.parametrize("p, q", PAIRS_50)
def test_fourier_end_holds_its_exact_value(p, q):
    # chi(2, n; p, q) >= n^max(0, x), x = 3/2 - 2/q - max(0, 1 - 2/p): the
    # end is at most the 50-digit value, the K_2 upper end made from it at
    # least its value, and no chi upper end at m = 2 is below it
    e = ExponentPair(p, q)
    inv_p, inv_q = _inv_fraction(p), _inv_fraction(q)
    x = max(Fraction(0), Fraction(3, 2) - 2 * inv_q - max(Fraction(0), 1 - 2 * inv_p))
    for n in (2, 64, 1039, 2**40):
        low = chi_fourier(n, e)
        [(log_up, _)] = log_chi_uppers([2], n, e)
        assert low <= chi_upper_ends(log_up, 2)[0], n
        k_2 = bohr._k_upper(2, Endpoint(low, FOURIER_SOURCE)).value
        with localcontext(prec=50):
            exact = (_dec(x) * Decimal(n).ln()).exp()
            assert Decimal(low) <= exact and Decimal(k_2) >= 1 / exact.sqrt(), n
        if not x:
            assert low == k_2 == 1.0
