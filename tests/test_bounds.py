import ast
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.bohr import k_bracket
from bohrlab.bounds import (
    ExponentPair,
    bayart_bound,
    chi_upper_small_pq,
    conjugate,
    envelope_constant,
    inv,
    j_sum,
    lempoly_rhs,
    log_chi_upper,
    log_chi_uppers,
    log_j_sum,
    log_j_sums,
    rate,
    region_classify,
    transfer_lower_pq,
)
from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import lambda_card, partition_shapes


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
        assert sums[m - 1] == log_j_sum(m, n, beta)


def test_log_j_sums_budget_checked_first():
    with pytest.raises(BudgetExceededError):
        log_j_sums(10**4, 2**40, 1.0, budget=10**9)
    for bad in [(0, 4, 1.0), (3, 0, 1.0), (3, 4, math.inf)]:
        with pytest.raises(ValueError):
            log_j_sums(*bad)


@pytest.mark.parametrize("p, q", [(2.0, 4 / 3), (1.5, 1.25), (2.0, 2.0), (2.0, 1.0),
                                  (4.0, 4.0), (math.inf, 2.0)])
@pytest.mark.parametrize("n", [64, 1039, 2**40])
@pytest.mark.parametrize("M", [1, 4, 7])
def test_k_bracket_lower_is_the_one_degree_at_a_time_value(p, q, n, M):
    e = ExponentPair(p, q)
    br = k_bracket(n, e, M, sign_budget=0)
    grid = ast.literal_eval(br.lower.source.removeprefix("chi-upper roots over m grid "))
    assert grid[:M] == list(range(1, M + 1)) and grid[-1] == 10 * M
    assert log_chi_uppers(grid, n, e) == [log_chi_upper(m, n, e) for m in grid]
    sup_root = max(math.exp(log_chi_upper(m, n, e)[0] / m) for m in grid)
    assert br.lower.value == (1 / 3) / max(1.0, sup_root)


def test_j_sum_beta_zero_is_card():
    for m in range(2, 7):
        for n in range(1, 8):
            assert j_sum(m, n, beta=0.0) == pytest.approx(float(lambda_card(m - 1, n)))


def test_j_sum_budget():
    with pytest.raises(BudgetExceededError):
        j_sum(6, 8, beta=1.0, method="naive", budget=10)


def test_chi_upper_small_pq():
    e = ExponentPair(2.0, 2.0)
    assert chi_upper_small_pq(1, 4, e) == pytest.approx(math.e)
    assert chi_upper_small_pq(2, 3, e) == pytest.approx(2 * math.exp(1.5) * math.sqrt(3))
    with pytest.raises(ValueError):
        chi_upper_small_pq(2, 3, ExponentPair(3.0, 2.0))


def test_chi_upper_q1_degenerates():
    e = ExponentPair(2.0, 1.0)
    assert chi_upper_small_pq(3, 100, e) == pytest.approx(3 * math.exp(2.0))


def test_lempoly_rhs():
    assert lempoly_rhs(2, 3, math.inf, (1,)) == pytest.approx(2 * math.e)
    assert lempoly_rhs(3, 2, 1.0, (1, 1)) == pytest.approx(3 * math.e**3)
    with pytest.raises(ValueError):
        lempoly_rhs(1, 2, 2.0, ())


def test_bayart_bound():
    assert bayart_bound(2, 10, math.inf) == pytest.approx(
        math.sqrt(math.log(2) * 2) * 10**1.5
    )
    assert bayart_bound(3, 7, 1.0) == pytest.approx(1.0)
    assert bayart_bound(4, 6, 2.0) == pytest.approx(bayart_bound(4, 6, 2.0 + 1e-12), rel=1e-9)


def test_coefficient_chi_upper():
    # |Lambda(m, n)| * n^(m/p), the source wherever the small-exponent lemma
    # does not apply or is larger
    for (m, n, e), value in [((1, 5, ExponentPair(math.inf, 2.0)), 5.0),
                             ((2, 2, ExponentPair(2.0, 2.0)), 6.0)]:
        log_value, src = log_chi_upper(m, n, e)
        assert src == "coefficient bound"
        assert math.exp(log_value) == pytest.approx(value)


def test_linear_case_dominated():
    for n in (2, 8, 64):
        for (p, q) in [(2.0, 2.0), (2.0, 4 / 3), (4 / 3, 4 / 3), (4 / 3, 2.0), (2.0, 4.0)]:
            e = ExponentPair(p, q)
            exact = max(1.0, n ** (inv(e.q_conj) - inv(e.p_conj)))
            log_value, src = log_chi_upper(1, n, e)
            assert math.exp(log_value) >= exact - 1e-12
            if q <= p:
                assert src == "small-exponent lemma"
                assert chi_upper_small_pq(1, n, e) >= exact - 1e-12
            else:
                assert src == "coefficient bound"


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


def test_transfer_lower():
    e = ExponentPair(1.0, 2.0)
    assert transfer_lower_pq(16, e, 0.3) == pytest.approx(0.025)
    same = ExponentPair(2.0, 2.0)
    assert transfer_lower_pq(7, same, 0.2) == pytest.approx(0.2 / 3)
    assert transfer_lower_pq(1, ExponentPair(1.0, 3.0), 0.2) == pytest.approx(0.2 / 3)
    with pytest.raises(ValueError):
        transfer_lower_pq(4, ExponentPair(3.0, 2.0), 0.1)
