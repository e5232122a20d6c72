import math

import pytest

from bohrlab.bounds import (
    ExponentPair,
    bayart_bound,
    chi_upper_small_pq,
    coeff_chi_upper_generic,
    conjugate,
    envelope_constant,
    inv,
    j_sum,
    j_sum_filtered,
    lempoly_rhs,
    min_power_log,
    rate,
    region_classify,
    transfer_lower_pq,
)
from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import is_k_bounded, lambda_card, partition_shapes


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


def test_j_sum_beta_zero_is_card():
    for m in range(2, 7):
        for n in range(1, 8):
            assert j_sum(m, n, beta=0.0) == pytest.approx(float(lambda_card(m - 1, n)))


def test_j_sum_budget():
    with pytest.raises(BudgetExceededError):
        j_sum(6, 8, beta=1.0, method="naive", budget=10)


def test_split_inequalities():
    # full = k-bounded + complement and full <= m * max over shells
    for m in range(2, 7):
        for n in range(2, 7):
            for beta in (0.5, 1.0):
                full = j_sum(m, n, beta=beta, method="naive")
                qc = 2.0
                for k in range(1, m):
                    part = j_sum_filtered(m, n, beta, lambda a, k=k: is_k_bounded(a, k))
                    comp = j_sum_filtered(m, n, beta, lambda a, k=k: not is_k_bounded(a, k))
                    assert full == pytest.approx(part + comp, rel=1e-12)
                    assert full ** (1 / qc) <= (2 * max(part, comp)) ** (1 / qc) + 1e-12
                shells = [
                    j_sum_filtered(m, n, beta, lambda a, k=k: max(a) == k)
                    for k in range(1, m)
                ]
                assert full ** (1 / qc) <= (m * max(shells)) ** (1 / qc) + 1e-12


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


def test_coeff_chi_upper_generic():
    assert coeff_chi_upper_generic(1, 5, math.inf) == pytest.approx(5.0)
    assert coeff_chi_upper_generic(2, 2, 2.0) == pytest.approx(6.0)


def test_linear_case_dominated():
    for n in (2, 8, 64):
        for (p, q) in [(2.0, 2.0), (2.0, 4 / 3), (4 / 3, 4 / 3)]:
            e = ExponentPair(p, q)
            exact = max(1.0, n ** (inv(e.q_conj) - inv(e.p_conj)))
            assert chi_upper_small_pq(1, n, e) >= exact - 1e-12
            assert coeff_chi_upper_generic(1, n, p) >= exact - 1e-12


def test_min_power_log():
    r = min_power_log(1.0, 1.0, math.e)
    assert r.x_star == pytest.approx(1.0)
    r2 = min_power_log(2.0, 1.0, math.e**4)
    assert r2.x_star == pytest.approx(2.0)
    assert r2.value == pytest.approx(4 * math.e**2)
    for x in [0.1 * k for k in range(1, 101)]:
        assert r2.value <= x**2.0 * (math.e**4) ** (1.0 / x) + 1e-9


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
