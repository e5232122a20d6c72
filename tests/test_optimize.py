import math

import numpy as np
import pytest

from bohrlab.multiindex import enumerate_lambda
from bohrlab.optimize import (
    OptConfig,
    _structured_starts,
    bohr_sum,
    dec_rearrange,
    id_norm_q_to_xinfty,
    lp_norm,
    majorant_sup,
    series_sup,
    split_factorize,
    sup_norm,
    x_infty_norm,
)
from bohrlab.polynomial import HomPoly, TruncatedSeries, moebius_series

CFG = OptConfig(restarts=16, iters=150, seed=11)
RNG = np.random.default_rng(42)


def random_poly(m, n, rng=RNG):
    alphas = list(enumerate_lambda(m, n))
    c = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
    return HomPoly(n, m, dict(zip(alphas, c)))


def test_sup_norm_z1z2():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert sup_norm(P, 2.0, CFG).value == pytest.approx(0.5, abs=1e-9)


def test_sup_norm_monomial():
    for p in (1.0, 2.0, math.inf):
        P = HomPoly(3, 4, {(4, 0, 0): 1.0})
        assert sup_norm(P, p, CFG).value == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_linear_torus():
    P = HomPoly(2, 1, {(1, 0): 1.0, (0, 1): 1.0})
    assert sup_norm(P, math.inf, CFG).value == pytest.approx(2.0, abs=1e-9)


def test_sup_norm_witness_reproduces_value():
    for _ in range(10):
        P = random_poly(2, 3)
        for p in (1.0, 2.0, math.inf):
            est = sup_norm(P, p, CFG)
            assert abs(P.eval(est.witness)) == pytest.approx(est.value, rel=1e-9)
            assert lp_norm(np.asarray(est.witness)[None, :], p)[0] <= 1 + 1e-12


def test_sup_norm_monotone_in_p():
    for _ in range(50):
        P = random_poly(2, 2)
        v1 = sup_norm(P, 1.0, CFG).value
        v2 = sup_norm(P, 2.0, CFG).value
        vi = sup_norm(P, math.inf, CFG).value
        assert v1 <= v2 * (1 + 1e-6)
        assert v2 <= vi * (1 + 1e-6)


def test_sup_norm_validation():
    P = HomPoly(1, 1, {(1,): float("nan")})
    with pytest.raises(ValueError):
        sup_norm(P, 2.0, CFG)
    with pytest.raises(ValueError):
        sup_norm(HomPoly(1, 1, {(1,): 1.0}), 2.0, OptConfig(restarts=0))


def test_structured_starts_memory_is_quadratic():
    # the n coordinate starts may share one n x n identity, not hold one each
    n = 100
    P = HomPoly(n, 1, {tuple(int(i == k) for i in range(n)): 1.0 for k in range(n)})
    starts = _structured_starts(P, 2.0)
    held = {id(s.base): s.base.nbytes for s in starts if s.base is not None}
    assert sum(held.values()) <= n * n * 16


def test_majorant_sup():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert majorant_sup(P, 2.0, CFG).value == pytest.approx(0.5, abs=1e-9)
    Q = HomPoly(2, 3, {(2, 1): complex(0, -2)})
    assert majorant_sup(Q, math.inf, CFG).value == pytest.approx(2.0, abs=1e-12)
    R = HomPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    assert majorant_sup(R, math.inf, CFG).value == pytest.approx(2.0, abs=1e-12)


def test_majorant_dominates_sup():
    for _ in range(10):
        P = random_poly(2, 3)
        for q in (2.0, math.inf):
            assert majorant_sup(P, q, CFG).value >= sup_norm(P, q, CFG).value - 1e-9
    # equality for nonnegative coefficients
    M = random_poly(2, 3).majorant()
    for q in (2.0, math.inf):
        a = majorant_sup(M, q, CFG).value
        b = sup_norm(M, q, CFG).value
        assert a == pytest.approx(b, rel=1e-6)


def test_bohr_sum_moebius_closed_form():
    a, r, M = 0.6, 0.3, 40
    F = moebius_series(a, M)
    exact = a + (1 - a * a) * r / (1 - a * r)
    got = bohr_sum(F, r, 2.0, CFG).value
    assert abs(got - exact) <= (a * r) ** M + 1e-13


def test_bohr_sum_edges():
    F = moebius_series(0.5, 5)
    assert bohr_sum(F, 0.0, 2.0, CFG).value == pytest.approx(0.5)
    G = TruncatedSeries(2, 0.0, [HomPoly(2, 1, {(1, 0): 0, (0, 1): 0}),
                                 HomPoly(2, 2, {(1, 1): 1.0})])
    assert bohr_sum(G, 0.5, 2.0, CFG).value == pytest.approx(0.125, abs=1e-9)


def test_bohr_sum_monotone_in_r_and_q():
    rng = np.random.default_rng(5)
    for _ in range(10):
        parts = []
        for k in (1, 2):
            alphas = list(enumerate_lambda(k, 2))
            c = rng.standard_normal(len(alphas))
            parts.append(HomPoly(2, k, dict(zip(alphas, c))))
        F = TruncatedSeries(2, complex(rng.standard_normal()), parts)
        prev = 0.0
        for r in (0.1, 0.2, 0.4):
            v = bohr_sum(F, r, 2.0, CFG).value
            assert v >= prev - 1e-12
            prev = v
        v1 = bohr_sum(F, 0.3, 4 / 3, CFG).value
        v2 = bohr_sum(F, 0.3, 2.0, CFG).value
        v3 = bohr_sum(F, 0.3, math.inf, CFG).value
        assert v1 <= v2 + 1e-9 <= v3 + 2e-9


def test_series_sup_one_dim():
    F = moebius_series(0.5, 30)
    # automorphism has modulus 1 on the circle; truncation slightly below
    v = series_sup(F, 2.0, OptConfig(restarts=32, seed=0)).value
    assert 0.95 <= v <= 1.0 + 1e-9


def test_dec_rearrange():
    assert list(dec_rearrange([0.5, 0.0, 2.0])) == [2.0, 0.5, 0.0]
    assert list(dec_rearrange([1.0, 1.0])) == [1.0, 1.0]
    assert list(dec_rearrange([complex(3, -4), 12.0])) == [12.0, 5.0]


def test_x_infty_norm():
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert x_infty_norm(e1) == pytest.approx(1 / math.sqrt(math.log(2)))
    assert x_infty_norm(np.zeros(5)) == 0.0
    flat = np.ones(8)
    expected = max(math.sqrt(k) / math.sqrt(math.log(k)) for k in range(2, 9))
    assert x_infty_norm(flat) == pytest.approx(expected)
    with pytest.raises(ValueError):
        x_infty_norm([1.0])


def test_id_norm_q_to_xinfty():
    assert id_norm_q_to_xinfty(7, 2.0) == pytest.approx(1 / math.sqrt(math.log(2)))
    assert id_norm_q_to_xinfty(16, math.inf) == pytest.approx(4 / math.sqrt(math.log(16)))
    with pytest.raises(ValueError):
        id_norm_q_to_xinfty(8, 1.5)


def test_id_norm_certifies_samples():
    rng = np.random.default_rng(3)
    for q in (2.0, 3.0, math.inf):
        bound = id_norm_q_to_xinfty(12, q)
        for _ in range(200):
            z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            nq = lp_norm(z[None, :], q)[0]
            assert x_infty_norm(z) / nq <= bound + 1e-9


def test_holder_prefix_chain():
    rng = np.random.default_rng(4)
    for q in (2.0, 4.0, math.inf):
        for _ in range(50):
            z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            zs = dec_rearrange(z)
            nq = lp_norm(z[None, :], q)[0]
            for k in range(2, 11):
                pre = math.sqrt(float(np.sum(zs[:k] ** 2)))
                assert pre <= k ** (0.5 - (0 if q == math.inf else 1 / q)) * nq + 1e-12


def test_split_factorize():
    y, w = split_factorize(np.array([0.25 + 0j]), 2.0)
    assert abs(y[0]) == pytest.approx(0.5)
    assert abs(w[0]) == pytest.approx(0.5)
    z = np.array([0.0, 1.0 - 1.0j, 0.3])
    y, w = split_factorize(z, 4.0)
    assert np.allclose(y * w, z, atol=1e-12)
    assert abs(y[0]) == 0.0
    yi, wi = split_factorize(z, math.inf)
    assert np.allclose(yi, z)
    assert np.allclose(np.abs(wi), 1.0)
    with pytest.raises(ValueError):
        split_factorize(z, 1.5)


def _series(seed, n, M):
    rng = np.random.default_rng(seed)
    parts = [random_poly(k, n, rng) for k in range(1, M + 1)]
    return TruncatedSeries(n, complex(*rng.standard_normal(2)), parts)


def _poly(seed, m, n):
    return random_poly(m, n, np.random.default_rng(seed))


PINNED_CASES = {
    "sup_norm-m2-n3-p2": lambda: sup_norm(_poly(1, 2, 3), 2.0, CFG),
    "sup_norm-m3-n2-pinf": lambda: sup_norm(_poly(2, 3, 2), math.inf, CFG),
    "sup_norm-m2-n4-p1": lambda: sup_norm(_poly(3, 2, 4), 1.0, CFG),
    "majorant_sup-m2-n3-q2": lambda: majorant_sup(_poly(4, 2, 3), 2.0, CFG),
    "majorant_sup-m3-n3-q4_3": lambda: majorant_sup(_poly(5, 3, 3), 4 / 3, CFG),
    "majorant_sup-m2-n2-qinf": lambda: majorant_sup(_poly(6, 2, 2), math.inf, CFG),
    "bohr_sum-n2-M3-q2": lambda: bohr_sum(_series(7, 2, 3), 0.3, 2.0, CFG),
    "bohr_sum-n3-M2-q4_3": lambda: bohr_sum(_series(8, 3, 2), 0.5, 4 / 3, CFG),
    "bohr_sum-n2-M2-qinf": lambda: bohr_sum(_series(9, 2, 2), 0.4, math.inf, CFG),
    "bohr_sum-n1-M4": lambda: bohr_sum(_series(10, 1, 4), 0.3, 2.0, CFG),
    "series_sup-n2-M3-p2": lambda: series_sup(_series(11, 2, 3), 2.0, CFG),
    "series_sup-n3-M2-pinf": lambda: series_sup(_series(12, 3, 2), math.inf, CFG),
    "series_sup-n1-M4-p2": lambda: series_sup(_series(13, 1, 4), 2.0, CFG),
}

# Values recorded with the per-term power-table kernel (the reference in
# test_polynomial.py); a kernel or driver change must not move them.
PINNED = {
    'sup_norm-m2-n3-p2': 1.459534786521308,
    'sup_norm-m3-n2-pinf': 5.733080394881655,
    'sup_norm-m2-n4-p1': 3.32900085286887,
    'majorant_sup-m2-n3-q2': 2.8944016228739033,
    'majorant_sup-m3-n3-q4_3': 1.7088754532479185,
    'majorant_sup-m2-n2-qinf': 5.996705956868179,
    'bohr_sum-n2-M3-q2': 2.7392662586391396,
    'bohr_sum-n3-M2-q4_3': 2.6545337350827043,
    'bohr_sum-n2-M2-qinf': 3.9276597022065394,
    'bohr_sum-n1-M4': 1.1426700707539,
    'series_sup-n2-M3-p2': 4.567682937975816,
    'series_sup-n3-M2-pinf': 9.337026356911082,
    'series_sup-n1-M4-p2': 6.7282827369592715,
}


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_estimates_pinned(case):
    assert PINNED_CASES[case]().value == pytest.approx(PINNED[case], rel=1e-9)
