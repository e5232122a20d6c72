import itertools
import math

import numpy as np
import pytest

from bohrlab.bounds import ExponentPair, chi_upper_small_pq
from bohrlab.multiindex import enumerate_lambda, multiplicity
from bohrlab.optimize import NormEstimate, OptConfig, lp_norm, sup_norm
from bohrlab import polynomial, witness
from bohrlab.polynomial import HomPoly, sign_polynomial
from bohrlab.witness import (
    brute_chi,
    chi_bracket,
    chi_lower_flat,
    lempoly_check,
    sign_search,
)

CFG = OptConfig(restarts=12, iters=120, seed=9)


def exhaustive_min_norm(m, n, p):
    alphas = list(enumerate_lambda(m, n))
    best = math.inf
    for bits in itertools.product((1, -1), repeat=len(alphas) - 1):
        signs = dict(zip(alphas, (1,) + bits))
        best = min(best, sup_norm(sign_polynomial(m, n, signs), p, CFG).value)
    return best


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, math.inf])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_scoring_points(n, p):
    Z = witness._mc_sphere_points(n, p, 64, seed=5)
    assert Z.shape == (64, n)
    assert np.array_equal(Z, witness._mc_sphere_points(n, p, 64, seed=5))
    assert not np.array_equal(Z, witness._mc_sphere_points(n, p, 64, seed=6))
    if p == math.inf:
        assert np.abs(np.abs(Z) - 1.0).max() <= 1e-12
    else:
        assert np.abs(lp_norm(Z, p) - 1.0).max() <= 1e-12
    X = witness._mc_nonneg_points(n, p, 64, seed=5)
    assert X.shape == (64, n) and (X >= 0).all()
    assert np.array_equal(X, witness._mc_nonneg_points(n, p, 64, seed=5))
    if n > 1:  # the nonnegative l_q sphere of one variable is the point 1
        assert not np.array_equal(X, witness._mc_nonneg_points(n, p, 64, seed=6))
    assert np.abs(lp_norm(X, p) - 1.0).max() <= 1e-12


def test_sign_search_linear_flat():
    _, est = sign_search(1, 2, math.inf, 100, 0, CFG)
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_sign_search_matches_exhaustive():
    for (m, n, p) in [(2, 2, math.inf), (2, 2, 2.0), (3, 2, math.inf), (2, 3, 2.0)]:
        _, est = sign_search(m, n, p, 4000, 1, CFG)
        assert est.value == pytest.approx(exhaustive_min_norm(m, n, p), rel=1e-9)


def test_sign_search_deterministic():
    s1, e1 = sign_search(2, 3, 2.0, 500, 13, CFG)
    s2, e2 = sign_search(2, 3, 2.0, 500, 13, CFG)
    assert s1 == s2
    assert e1.value == e2.value


def test_sign_search_takes_earliest_of_tied_leaders(monkeypatch):
    # every pattern of a linear form has norm n on the torus; the re-scored
    # norms differ only in the last bits, the least one last
    rescored = []

    def last_bits(A, C, p, cfg):
        rescored.append(C)
        return [NormEstimate(5.0 - 1e-15 * k, np.ones(5), 1, True) for k in range(len(C))]

    monkeypatch.setattr(witness, "sup_norms", last_bits)
    signs, est = sign_search(1, 5, math.inf, 200, 3, CFG)
    (C,) = rescored
    assert len(C) == witness.TOP_K
    assert list(signs.values()) == C[0].tolist() and est.value == 5.0


def test_sign_search_validation():
    with pytest.raises(ValueError):
        sign_search(2, 2, 2.0, 0, 0, CFG)


def test_chi_lower_flat():
    assert chi_lower_flat(1, 4, math.inf, 4.0) == pytest.approx(1.0)
    assert chi_lower_flat(3, 5, 1.0, 2.0) == pytest.approx(0.5)  # numerator 1
    with pytest.raises(ValueError):
        chi_lower_flat(2, 2, 2.0, 0.0)
    # 2^1100 is past the float range, 2^1100 / 2^300 is not
    assert chi_lower_flat(1100, 2, math.inf, 2.0**300) == pytest.approx(2.0**800, rel=1e-12)
    with pytest.raises(ValueError, match="chi_lower_flat"):
        chi_lower_flat(1100, 2, math.inf, 2.0)


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, math.inf])
def test_sign_search_stays_in_the_float_range(monkeypatch, p):
    # Lambda(480, 2) answers for every p with no overflow (the test suite
    # turns RuntimeWarnings into errors); 16 scoring points keep it small
    monkeypatch.setattr(witness, "MC_POINTS", 16)
    _, est = sign_search(480, 2, p, 10, 0, OptConfig(1, 1))
    assert 0 < est.value < math.inf


def test_sign_search_refuses_past_the_float_range(monkeypatch):
    # Lambda(505, 2) at p = 2: lp_norm of a step would square numbers
    # near 2^525, so the search fails before it enumerates
    def enumerate_lambda(*args, **kwargs):
        raise AssertionError("index set enumerated before the range check")

    monkeypatch.setattr(witness, "enumerate_lambda", enumerate_lambda)
    for m, p in ((505, 2.0), (505, math.inf), (1100, 1.0)):
        with pytest.raises(ValueError, match="float range"):
            sign_search(m, 2, p, 10, 0, CFG)
    # chi_bracket skips the chain there, and fails on m < 1 before any search
    br = chi_bracket(1100, 2, ExponentPair(2.0, math.inf), CFG, sign_budget=10)
    assert br.lower == witness.Endpoint(1.0, "trivial")
    monkeypatch.setattr(witness, "sign_search", enumerate_lambda)
    with pytest.raises(ValueError, match="m >= 1"):
        chi_bracket(0, 2, ExponentPair(2.0, math.inf), CFG, sign_budget=10)


def test_chi_lower_flat_exhaustive_m2_n2():
    minnorm = exhaustive_min_norm(2, 2, math.inf)
    val = chi_lower_flat(2, 2, math.inf, minnorm)
    assert val == pytest.approx(4.0 / minnorm, rel=1e-12)
    # the flat point evaluates the multinomial identity exactly
    total = sum(multiplicity(a) for a in enumerate_lambda(2, 2))
    assert total == 2**2


def test_brute_chi_m1():
    assert brute_chi(1, 3, ExponentPair(2.0, 2.0), seed=0, cfg=CFG).raw == pytest.approx(
        1.0, rel=1e-6
    )
    got = brute_chi(1, 4, ExponentPair(2.0, math.inf), seed=0, cfg=CFG).raw
    assert got == pytest.approx(2.0, rel=0.01)


def test_brute_chi_below_closed_form_upper():
    e = ExponentPair(2.0, 1.5)
    bc = brute_chi(2, 2, e, seed=0, cfg=CFG)
    assert bc.deflated <= bc.raw
    assert bc.raw <= chi_upper_small_pq(2, 2, e) * 1.01


def test_brute_chi_validation():
    with pytest.raises(ValueError):
        brute_chi(4, 10, ExponentPair(2.0, 2.0), cfg=CFG)  # index set too big
    with pytest.raises(ValueError):
        brute_chi(1, 2, ExponentPair(2.0, 2.0), samples=10, cfg=CFG)


def test_caps_checked_before_enumeration(monkeypatch):
    def enumerate_lambda(*args, **kwargs):
        raise AssertionError("index set enumerated before the cap check")

    monkeypatch.setattr(witness, "enumerate_lambda", enumerate_lambda)
    with pytest.raises(ValueError, match="exceeds cap"):
        sign_search(8, 40, 2.0, 100, 0, CFG)  # C(47, 8) ~ 3.1e8 terms
    with pytest.raises(ValueError, match="exceeds brute cap"):
        brute_chi(8, 40, ExponentPair(2.0, 2.0), cfg=CFG)


def test_witnesses_compile_each_support_once(monkeypatch):
    builds = []

    class CountingTable(polynomial.MonomialTable):
        def __init__(self, A):
            builds.append(len(A))
            super().__init__(A)

    monkeypatch.setattr(polynomial, "MonomialTable", CountingTable)
    sign_search(4, 8, 2.0, 200, 0, CFG)  # Monte Carlo matrix + one re-scoring ascent
    assert len(builds) <= 2
    builds.clear()
    brute_chi(2, 4, ExponentPair(2.0, 1.5), seed=0, cfg=CFG)  # two point sets + two ascents
    assert len(builds) <= 4


def test_chi_bracket_linear_small_pq():
    br = chi_bracket(1, 4, ExponentPair(2.0, 2.0), CFG, sign_budget=200)
    assert br.lower.value == pytest.approx(1.0)
    assert br.upper.value == pytest.approx(math.e)


def test_chi_bracket_contains_brute():
    e = ExponentPair(2.0, 2.0)
    br = chi_bracket(2, 2, e, CFG, sign_budget=500)
    bc = brute_chi(2, 2, e, seed=CFG.seed, cfg=CFG)
    assert br.lower.value <= bc.raw * 1.06  # deflation slack
    assert bc.raw <= br.upper.value * (1 + 1e-9)
    assert br.lower.value <= br.upper.value


def test_chi_bracket_skips_search_above_cap():
    # C(47, 8) ~ 3.1e8 terms: above SIGN_CAP and BRUTE_CAP
    br = chi_bracket(8, 40, ExponentPair(2.0, 2.0), CFG, sign_budget=100)
    assert br.lower.value == 1.0 and br.lower.source == "trivial"


def test_lempoly_monomial():
    for p in (1.0, 2.0, math.inf):
        P = HomPoly(3, 3, {(3, 0, 0): 1.0})
        rep = lempoly_check(P, p, 1.05, CFG)
        assert rep.all_pass
        assert rep.norm == pytest.approx(1.0, abs=1e-9)


def test_lempoly_slice_lhs_exact():
    # P = 2 z1^2 + 3 z1 z2: slice at j=(1) has c_{(1,1)}=2, c_{(1,2)}=3
    P = HomPoly(2, 2, {(2, 0): 2.0, (1, 1): 3.0})
    rep = lempoly_check(P, 2.0, 1.05, CFG)
    row = {r.j: r for r in rep.rows}
    assert row[(1,)].lhs == pytest.approx(math.sqrt(4 + 9))
    assert row[(2,)].lhs == pytest.approx(0.0)


def test_lempoly_random_suite():
    rng = np.random.default_rng(77)
    alphas = list(enumerate_lambda(3, 4))
    for _ in range(50):
        c = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
        P = HomPoly(4, 3, dict(zip(alphas, c)))
        assert lempoly_check(P, 2.0, 1.05, CFG).all_pass


def test_lempoly_adversarial_sign_minimizer():
    signs, _ = sign_search(3, 4, math.inf, 2000, 0, CFG)
    P = sign_polynomial(3, 4, signs)
    assert lempoly_check(P, math.inf, 1.05, CFG).all_pass


def test_lempoly_m1_rejected():
    with pytest.raises(ValueError):
        lempoly_check(HomPoly(2, 1, {(1, 0): 1.0}), 2.0)
