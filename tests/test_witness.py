import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bohrlab.bounds import LINEAR_SOURCE, ExponentPair, chi_upper_ends, log_chi_uppers
from bohrlab.multiindex import enumerate_lambda, multiplicity
from bohrlab.optimize import NormEstimate, OptConfig, lp_norm, majorant_sups, sup_norm, sup_norms
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

    def last_bits(A, C, p, cfg, table):
        rescored.append(C)
        return [NormEstimate(5.0 - 1e-15 * k, np.ones(5), 1, True) for k in range(len(C))]

    monkeypatch.setattr(witness, "sup_norms", last_bits)
    signs, est = sign_search(1, 5, math.inf, 200, 3, CFG)
    (C,) = rescored
    assert len(C) == witness.TOP_K
    assert list(signs.values()) == C[0].tolist() and est.value == 5.0


class DenseScorer:
    """Reference scorer: the whole scoring matrix, multiplicities applied in
    place on the power table's support view, in one block."""

    def __init__(self, Z, index_set):
        self.M = polynomial.monomials(Z, index_set.A)
        self.M *= index_set.mults

    def column(self, t):
        return self.M[:, t]

    def map(self, f):
        return [f(self.M)]


SCORED = [(1, 5, 1.0), (2, 3, 2.0), (3, 4, math.inf), (4, 6, 2.0), (2, 9, 1.0),
          (5, 3, math.inf), (9, 2, 2.0), (3, 7, math.inf)]


@pytest.mark.parametrize("m, n, p", SCORED)
@pytest.mark.parametrize("entries", [2**20, 2**10])
def test_streamed_scores_are_the_dense_matrix(monkeypatch, m, n, p, entries):
    # entries = 2**10 cuts every index set here into several point blocks
    monkeypatch.setattr(witness, "BATCH_ENTRIES", entries)
    index_set = witness._index_set(m, n)
    A, mults, _ = index_set
    Z = witness._mc_sphere_points(n, p, witness.MC_POINTS, 3)
    raw, S = polynomial.monomials(Z, A), witness._Scorer(Z, index_set)
    for t in range(len(A)):
        assert S.column(t).tobytes() == (raw[:, t] * mults[t]).tobytes()
    blocks = S.map(np.copy)
    assert (len(blocks) > 1) == (entries == 2**10)
    assert np.concatenate(blocks).tobytes() == (raw * mults).tobytes()


@pytest.mark.parametrize("m, n, p", SCORED)
@pytest.mark.parametrize("budget", [40, 300])
def test_sign_search_matches_dense_scorer(monkeypatch, m, n, p, budget):
    # both branches: Lambda(1, 5) and Lambda(2, 3) fit in either budget and
    # are enumerated, the others anneal; small blocks cut the streamed
    # matrix into several
    cfg = OptConfig(4, 5, 1)
    monkeypatch.setattr(witness, "BATCH_ENTRIES", 2**10)
    s, a = sign_search(m, n, p, budget, 2, cfg)
    monkeypatch.setattr(witness, "_Scorer", DenseScorer)
    d, b = sign_search(m, n, p, budget, 2, cfg)
    assert s == d
    assert (a.value, a.restarts, a.converged) == (b.value, b.restarts, b.converged)
    assert a.witness.tobytes() == b.witness.tobytes()


def _peak_mb(f, *args) -> float:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sign_search_memory_is_bounded_by_the_support():
    # the dense scoring matrices were 512 x 4845 entries (Lambda(4, 16)'s
    # down-closure, 40.8 MB peak) and 512 x 20301 (Lambda(200, 2), 159 MB);
    # streamed, one block of at most BATCH_ENTRIES entries is alive
    assert _peak_mb(sign_search, 4, 16, 2.0, 200, 1, OptConfig(4, 5, 1)) < 24
    assert _peak_mb(sign_search, 200, 2, math.inf, 10, 0, OptConfig(1, 1, 0)) < 40


def test_sign_search_memory_at_large_n():
    # Lambda(1, 2000) at p = 2: every re-scored row has 2000 coordinate
    # starts.  Its exponents and sign tuples are 2000 x 2000 (61 MB); the
    # ascent adds no n x n array and splits each row's starts, where one
    # n x n identity of starts grew the peak with n^2 (61 MB at n = 250,
    # 139 MB at n = 500).  The sign polynomial sum eps_i z_i has sup
    # sqrt(n), which its Hoelder start reaches
    signs = {}

    def search():
        signs["est"] = sign_search(1, 2000, 2.0, 10, 0, OptConfig(1, 1, 0))[1]

    assert _peak_mb(search) < 160
    assert signs["est"].value == pytest.approx(math.sqrt(2000), rel=1e-12)


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


@pytest.mark.parametrize("m, p", [(505, 1.0), (505, 2.0), (505, math.inf), (3, 600.0),
                                  (3, 644.0), (1, 644.0)])
def test_sign_search_runs_past_the_old_float_bound(monkeypatch, m, p):
    # refused while the ascent formed |F|^2 and F dF (at n = 2: from m = 491
    # at p = 2, m = 502 at p = inf, and p = 56 at m = 3); the refusal now
    # rests on the step cap, and these run with no overflow warning.  16
    # scoring points keep them small
    monkeypatch.setattr(witness, "MC_POINTS", 16)
    assert witness._search_refusal(m, 2, p) is None
    _, est = sign_search(m, 2, p, 10, 0, OptConfig(1, 1))
    assert 0 < est.value < math.inf


def test_sign_search_refuses_past_the_float_range(monkeypatch):
    # Lambda(1100, 2): coefficients times exponents pass m 2^m = 2^1110,
    # at every p; Lambda(3, 2) at p = 700: a try's moduli reach 1 +
    # STEP_CAP = 3, and the l_p norm would sum 3^700.  The search fails
    # before it enumerates.
    def enumerate_lambda(*args, **kwargs):
        raise AssertionError("index set enumerated before the range check")

    monkeypatch.setattr(witness, "enumerate_lambda", enumerate_lambda)
    for m, p in ((1100, 2.0), (1100, math.inf), (1100, 1.0), (3, 700.0)):
        with pytest.raises(ValueError, match="float range"):
            sign_search(m, 2, p, 10, 0, CFG)
    # the edges at n = 2: m = 1012 and p = 644 are admitted (Lambda(1012, 2)
    # ran once at p in {1, 4/3, 2, inf} with no warning)
    for p in (1.0, 2.0, math.inf):
        assert witness._search_refusal(1012, 2, p) is None
        assert witness._search_refusal(1013, 2, p) is not None
    assert witness._search_refusal(3, 2, 644.0) is None
    assert witness._search_refusal(3, 2, 645.0) is not None
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
    assert bc.raw <= chi_upper_ends(log_chi_uppers([2], 2, e)[0][0], 2)[0] * 1.01


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("p, q", [(4 / 3, 4.0), (1.0, math.inf), (2.0, 1.5), (math.inf, 4 / 3),
                                  (1.0, 2.0)])
def test_monomial_ratios_match_the_optimizer(m, n, p, q):
    # each single-monomial probe's ratio, in closed form, is the estimators'
    # ratio on the rows of the identity
    A = witness._index_set(m, n).A
    rows, cfg = np.eye(len(A)), OptConfig(4, 5)
    want = [a.value / b.value
            for a, b in zip(majorant_sups(A, rows, q, cfg), sup_norms(A, rows, p, cfg))]
    assert np.allclose(witness._monomial_ratios(A, ExponentPair(p, q)), want, rtol=1e-9, atol=0)


def test_monomial_ratios_closed_form():
    # prod_i (alpha_i / m)^(alpha_i (1/q - 1/p)): 1 in one variable, 4 at
    # alpha = (1, 1), (p, q) = (1, inf)
    A = np.array([[2, 0], [1, 1], [0, 2]])
    assert witness._monomial_ratios(A, ExponentPair(1.0, math.inf)).tolist() == [1.0, 4.0, 1.0]
    assert witness._monomial_ratios(np.array([[5]]), ExponentPair(1.0, math.inf)).tolist() == [1.0]
    assert witness._monomial_ratios(np.array([[0, 0]]), ExponentPair(2.0, 4.0)).tolist() == [1.0]


def test_brute_chi_sends_no_monomial_probe_to_the_optimizer(monkeypatch):
    sent = []

    def counted(f):
        def run(A, C, *args):
            sent.append(C)
            return f(A, C, *args)
        return run

    monkeypatch.setattr(witness, "majorant_sups", counted(majorant_sups))
    monkeypatch.setattr(witness, "sup_norms", counted(sup_norms))
    for m, n, e in ((2, 2, ExponentPair(1.0, math.inf)), (2, 4, ExponentPair(2.0, 1.5)),
                    (3, 3, ExponentPair(4 / 3, 4.0))):
        sent.clear()
        bc = brute_chi(m, n, e, seed=0, cfg=CFG)
        assert len(sent) == 2 and all((np.count_nonzero(C, axis=1) > 1).all() for C in sent)
        assert bc.raw >= witness._monomial_ratios(witness._index_set(m, n).A, e).max()


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
    builds, ran = [], []

    class CountingTable(polynomial.MonomialTable):
        def __init__(self, A):
            builds.append(len(A))
            super().__init__(A)

    def counted(f):
        def run(*args, **kwargs):
            ran.append(f.__name__)
            return f(*args, **kwargs)
        return run

    monkeypatch.setattr(polynomial, "MonomialTable", CountingTable)
    monkeypatch.setattr(witness, "MonomialTable", CountingTable)
    monkeypatch.setattr(witness, "sign_search", counted(sign_search))
    monkeypatch.setattr(witness, "brute_chi", counted(brute_chi))
    # Lambda(2, 4), 10 terms: both searches run, and the Monte Carlo scorer,
    # the brute oracle's two point sets and all three ascents share one table
    witness.chi_lower_end(2, 4, ExponentPair(2.0, 1.5), CFG, sign_budget=200)
    assert ran == ["sign_search", "brute_chi"]
    assert builds == [10]
    builds.clear()
    sign_search(4, 8, 2.0, 200, 0, CFG)  # called alone, each compiles its own
    brute_chi(2, 4, ExponentPair(2.0, 1.5), seed=0, cfg=CFG)
    assert builds == [330, 10]


def test_chi_bracket_linear_small_pq():
    br = chi_bracket(1, 4, ExponentPair(2.0, 2.0), CFG, sign_budget=200)
    assert br.lower == br.upper == witness.Endpoint(1.0, LINEAR_SOURCE)


def _no_search(*args, **kwargs):
    raise AssertionError("a search ran")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 1000, 10**300])
@pytest.mark.parametrize("p, q", [(2.0, 2.0), (2.0, 1.5), (1.0, math.inf), (4 / 3, 4.0),
                                  (math.inf, 1.0)])
def test_chi_bracket_linear_is_exact_without_a_search(monkeypatch, n, p, q):
    # chi(1, n; p, q) = n^max(0, 1/p - 1/q): both ends, and no witness runs
    monkeypatch.setattr(witness, "sign_search", _no_search)
    monkeypatch.setattr(witness, "brute_chi", _no_search)
    e = ExponentPair(p, q)
    exact = max(1.0, float(n) ** (1 / p - (0.0 if q == math.inf else 1 / q)))
    br = chi_bracket(1, n, e, CFG, sign_budget=2000)
    # the upper end comes through its log: a few ulps of ln chi wide
    width = 1e-15 * (4 + math.log(exact))
    assert br.lower.value == pytest.approx(exact, rel=width) == br.upper.value
    assert br.lower.value <= br.upper.value
    if exact == 1.0:
        assert br.lower.value == br.upper.value == 1.0
    assert br.lower.source == br.upper.source == LINEAR_SOURCE and not br.lower.estimate


def test_chi_bracket_linear_past_the_float_range(monkeypatch):
    # n^(1/p - 1/q) past the float range: no exact end, and the searches
    # refuse the index set as before
    monkeypatch.setattr(witness, "sign_search", _no_search)
    br = chi_bracket(1, 10**400, ExponentPair(1.0, math.inf), CFG, sign_budget=2000)
    assert br.lower == witness.Endpoint(1.0, "trivial")
    assert br.upper.value == math.inf and br.upper.source == LINEAR_SOURCE


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
