import json
import tracemalloc

import numpy as np
import pytest

from bohrlab.bohr import random_series
from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import enumerate_lambda
from bohrlab.polynomial import (
    HomPoly,
    PolyBatch,
    TruncatedSeries,
    eval_batch,
    grad_batch,
    moebius_series,
    monomials,
    poly_from_dict,
    poly_to_dict,
    series_from_dict,
    series_to_dict,
    sign_polynomial,
)
from bohrlab.witness import _monomial_matrix

RNG = np.random.default_rng(20260823)


def random_poly(m, n, rng=RNG):
    alphas = list(enumerate_lambda(m, n))
    c = (rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas)))
    return HomPoly(n, m, dict(zip(alphas, c)))


def test_eval_simple():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert P.eval([1.0, 1.0]) == pytest.approx(1.0)
    Q = HomPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert abs(Q.eval([1j, 1.0])) == pytest.approx(0.0, abs=1e-14)


def test_eval_homogeneity():
    for _ in range(10):
        m = int(RNG.integers(1, 5))
        n = int(RNG.integers(1, 4))
        P = random_poly(m, n)
        z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        lhs = P.eval(2.0 * z)
        rhs = 2.0**m * P.eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_eval_dimension_mismatch():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        P.eval([1.0, 2.0, 3.0])


def test_majorant_dominance():
    for _ in range(30):
        P = random_poly(3, 3)
        z = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        M = HomPoly(P.n, P.m, {a: abs(c) for a, c in P.coeffs.items()})
        assert abs(P.eval(z)) <= M.eval(np.abs(z)).real + 1e-12


def test_sign_polynomial():
    alphas = list(enumerate_lambda(1, 3))
    P = sign_polynomial(1, 3, {a: 1 for a in alphas})
    assert P.eval([1.0, 1.0, 1.0]) == pytest.approx(3.0)
    Q = sign_polynomial(2, 1, {(2,): -1})
    assert Q.coeffs[(2,)] == pytest.approx(-1.0)


def test_sign_polynomial_multinomial_identity():
    for m, n in [(2, 2), (3, 3), (4, 2)]:
        P = sign_polynomial(m, n, {a: 1 for a in enumerate_lambda(m, n)})
        t = 0.37
        val = P.eval([t] * n)
        assert abs(val - (n * t) ** m) <= 1e-12 * (n * t) ** m


def test_sign_polynomial_rejects_bad_signs():
    with pytest.raises(ValueError):
        sign_polynomial(1, 2, {(1, 0): 1})  # missing
    with pytest.raises(ValueError):
        sign_polynomial(1, 2, {(1, 0): 1, (0, 1): 2})  # not +-1


def test_moebius_series():
    F = moebius_series(0.0, 4)
    assert F.a0 == 0
    assert F.parts[0].coeffs[(1,)] == pytest.approx(-1.0)
    assert all(not F.parts[k].coeffs for k in range(1, 4))
    G = moebius_series(0.5, 3)
    assert G.parts[0].coeffs[(1,)] == pytest.approx(-0.75)
    with pytest.raises(ValueError):
        moebius_series(1.0, 3)


def test_random_series_deterministic_and_rescaled():
    F = random_series(1, 1, seed=7, budget=100)
    G = random_series(1, 1, seed=7, budget=100)
    assert F.a0 == G.a0
    assert F.parts[0].coeffs == G.parts[0].coeffs
    # 1-D sup on the circle: |a0 + a1 z| maxed where phases align
    assert abs(F.a0) + abs(F.parts[0].coeffs.get((1,), 0)) <= 1.0 + 1e-9


def test_random_series_budget():
    with pytest.raises(BudgetExceededError):
        random_series(2, 3, seed=0, budget=0)


def test_truncated_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 0.0, [HomPoly(2, 2, {(1, 1): 1.0})])  # degree 2 first


def power_table(A, c, Z):
    """Reference evaluator: per-term power tables (R, T, n), with prefix and
    suffix products for the gradients.  Returns (values, gradients)."""
    R, n = Z.shape
    pw = Z[:, None, :] ** A[None, :, :]
    left = np.ones_like(pw)
    right = np.ones_like(pw)
    left[:, :, 1:] = np.cumprod(pw, axis=2)[:, :, :-1]
    right[:, :, :-1] = np.cumprod(pw[:, :, ::-1], axis=2)[:, :, ::-1][:, :, 1:]
    pw_down = Z[:, None, :] ** np.maximum(A - 1, 0)[None, :, :]
    terms = (c[None, :, None] * A[None, :, :]) * pw_down * left * right
    return pw.prod(axis=2) @ c, terms.sum(axis=1)


def _points(R, n, zero_rows=0):
    Z = RNG.standard_normal((R, n)) + 1j * RNG.standard_normal((R, n))
    Z[:zero_rows, :: max(n - 1, 1)] = 0  # zero the first and last coordinates
    return Z


BATCH_CASES = {
    "full-m3-n3": lambda: (random_poly(3, 3), _points(8, 3)),
    "full-m4-n2": lambda: (random_poly(4, 2), _points(8, 2)),
    "sparse-not-down-closed": lambda: (
        HomPoly(4, 5, {(5, 0, 0, 0): 1.0, (0, 2, 0, 3): 2 - 1j, (1, 1, 0, 3): 0.5j}),
        _points(6, 4)),
    "n1": lambda: (HomPoly(1, 6, {(6,): 1.5 - 2j}), _points(5, 1)),
    "zero-coordinates": lambda: (random_poly(3, 4), _points(6, 4, zero_rows=3)),
    "series-with-constant": lambda: (
        TruncatedSeries(2, 0.7 - 0.2j, [random_poly(k, 2) for k in (1, 2, 3)]),
        _points(8, 2, zero_rows=2)),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batch_matches_scalar_and_grad(case):
    P, Z = BATCH_CASES[case]()
    A, c = P.tables()
    ref_vals, ref_grads = power_table(A, c, Z)
    tol = 1e-12 * max(1.0, np.abs(ref_vals).max(), np.abs(ref_grads).max())
    F = PolyBatch(A, c[None, :])
    vals = eval_batch(F, Z)
    v2, grads = grad_batch(F, Z)
    assert np.abs(vals - ref_vals).max() <= tol
    assert np.abs(v2 - ref_vals).max() <= tol
    assert np.abs(grads - ref_grads).max() <= tol
    for i in range(len(Z)):
        assert abs(P.eval(Z[i]) - vals[i]) <= tol
    fd = (eval_batch(F, Z + 1e-7 * np.eye(P.n)[0]) - vals) / 1e-7
    assert np.allclose(fd, grads[:, 0], rtol=1e-4, atol=1e-4)
    mon = _monomial_matrix(Z, [tuple(a) for a in A])
    assert mon.shape == (len(Z), len(A))
    assert np.abs(mon - (Z[:, None, :] ** A[None, :, :]).prod(axis=2)).max() <= tol


@pytest.mark.parametrize("owners", [[0, 0, 1, 1, 0], [2, 2, 2, 2, 2], [1, 0, 2, 3, 4]])
def test_batch_owners_match_single_polynomials(owners):
    # runs of equal owners in any order, a single owner, one point per owner
    rng = np.random.default_rng(70)
    alphas = list(enumerate_lambda(3, 3))
    A = np.array(alphas)
    C = rng.standard_normal((5, len(A))) + 1j * rng.standard_normal((5, len(A)))
    C[1, ::2] = 0
    batch = PolyBatch(A, C)
    Z = _points(5, 3, zero_rows=1)
    own = np.array(owners)
    vals = eval_batch(batch, Z, own)
    v2, grads = grad_batch(batch, Z, own)
    for i, k in enumerate(owners):
        want_v, want_g = grad_batch(PolyBatch(A, C[k:k + 1]), Z[i:i + 1])
        tol = 1e-12 * max(1.0, abs(want_v[0]), np.abs(want_g).max())
        assert abs(vals[i] - want_v[0]) <= tol and abs(v2[i] - want_v[0]) <= tol
        assert np.abs(grads[i] - want_g[0]).max() <= tol


def test_owner_products_need_no_per_point_gather():
    # K = 8 polynomials on Lambda(2, 60): evaluating points on their owners
    # costs about what one owner costs; gathering each point's coefficient
    # and derivative rows would hold points x rows x n entries
    rng = np.random.default_rng(61)
    A = np.array(list(enumerate_lambda(2, 60)))
    batch = PolyBatch(A, rng.standard_normal((8, len(A))) + 0j)
    Z = rng.standard_normal((64, 60)) + 1j * rng.standard_normal((64, 60))

    def peak(own):
        tracemalloc.start()
        try:
            grad_batch(batch, Z, own)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(np.zeros(64, dtype=np.int64))
    assert peak(np.repeat(np.arange(8), 8)) <= 1.5 * one
    assert peak(np.arange(64) % 8) <= 1.5 * one


def test_monomials_of_an_index_set_make_no_copy():
    # a whole index set is one run of power-table entries: the result is a
    # view of the table, not a second (points, terms) array
    rng = np.random.default_rng(60)
    A = np.array(list(enumerate_lambda(2, 60)))
    Z = rng.standard_normal((512, 60)) + 1j * rng.standard_normal((512, 60))
    tracemalloc.start()
    try:
        M = monomials(Z, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (512, len(A))
    assert peak <= 1.1 * M.nbytes
    assert np.allclose(M[:, ::37], (Z[:, None, :] ** A[None, ::37, :]).prod(axis=2))


def test_monomials_of_a_scattered_support():
    # mixed degrees out of order: the support entries are not one run
    A = np.array([[2, 0], [0, 0], [1, 1], [0, 1]])
    Z = np.random.default_rng(1).standard_normal((5, 2)) + 0.5j
    assert np.allclose(monomials(Z, A), (Z[:, None, :] ** A[None, :, :]).prod(axis=2))


def test_grad_batch_zero_entries():
    A, c = HomPoly(2, 3, {(2, 1): 1.0, (0, 3): 2.0}).tables()
    Z = np.array([[0.0 + 0j, 1.0 + 0j], [1.0, 0.0]])
    _, grads = grad_batch(PolyBatch(A, c[None, :]), Z)
    assert np.all(np.isfinite(grads))
    # d/dz1 (z1^2 z2) = 2 z1 z2 = 0 at z1=0; d/dz2 (2 z2^3) = 6 z2^2 = 6
    assert grads[0, 1] == pytest.approx(6.0)


def test_json_roundtrip():
    P = random_poly(2, 3)
    Q = poly_from_dict(json.loads(json.dumps(poly_to_dict(P))))
    assert Q.n == P.n and Q.m == P.m and Q.coeffs == P.coeffs
    F = moebius_series(0.3, 3)
    G = series_from_dict(json.loads(json.dumps(series_to_dict(F))))
    assert G.a0 == F.a0
    assert all(G.parts[k].coeffs == F.parts[k].coeffs for k in range(3))
