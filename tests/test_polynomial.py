import json
import math

import numpy as np
import pytest

from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import enumerate_lambda
from bohrlab.polynomial import (
    HomPoly,
    TruncatedSeries,
    eval_batch,
    grad_batch,
    moebius_series,
    poly_dumps,
    poly_loads,
    random_series,
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


def test_majorant():
    P = HomPoly(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    assert P.majorant().coeffs == {(1, 0): 1.0, (0, 1): 1.0}
    Q = HomPoly(1, 2, {(2,): complex(3, -4)})
    assert Q.majorant().coeffs[(2,)] == pytest.approx(5.0)
    M = P.majorant()
    assert M.majorant().coeffs == M.coeffs  # idempotent


def test_majorant_dominance():
    for _ in range(30):
        P = random_poly(3, 3)
        z = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        assert abs(P.eval(z)) <= P.majorant().eval(np.abs(z)).real + 1e-12


def test_weight_restrict():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert P.weight_restrict([2.0, 3.0]).coeffs[(1, 1)] == pytest.approx(6.0)
    assert P.weight_restrict([1.0, 1.0]).coeffs == P.coeffs
    assert P.weight_restrict([0.0, 0.0]).coeffs == {}


def test_weight_restrict_commutes_with_eval():
    for _ in range(100):
        m = int(RNG.integers(1, 4))
        n = int(RNG.integers(1, 4))
        P = random_poly(m, n)
        w = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        lhs = P.weight_restrict(w).eval(z)
        rhs = P.eval(w * z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_sign_polynomial():
    alphas = list(enumerate_lambda(1, 3))
    P = sign_polynomial(1, 3, {a: 1 for a in alphas})
    assert P.eval([1.0, 1.0, 1.0]) == pytest.approx(3.0)
    Q = sign_polynomial(2, 1, {(2,): -1})
    assert Q.coeffs[(2,)] == pytest.approx(-1.0)
    assert Q.exact[(2,)] == -1


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
    vals = eval_batch(P, Z)
    v2, grads = grad_batch(P, Z)
    assert np.abs(vals - ref_vals).max() <= tol
    assert np.abs(v2 - ref_vals).max() <= tol
    assert np.abs(grads - ref_grads).max() <= tol
    for i in range(len(Z)):
        assert abs(P.eval(Z[i]) - vals[i]) <= tol
    fd = (eval_batch(P, Z + 1e-7 * np.eye(P.n)[0]) - vals) / 1e-7
    assert np.allclose(fd, grads[:, 0], rtol=1e-4, atol=1e-4)
    mon = _monomial_matrix(Z, [tuple(a) for a in A])
    assert mon.shape == (len(Z), len(A))
    assert np.abs(mon - (Z[:, None, :] ** A[None, :, :]).prod(axis=2)).max() <= tol


def test_grad_batch_zero_entries():
    P = HomPoly(2, 3, {(2, 1): 1.0, (0, 3): 2.0})
    Z = np.array([[0.0 + 0j, 1.0 + 0j], [1.0, 0.0]])
    _, grads = grad_batch(P, Z)
    assert np.all(np.isfinite(grads))
    # d/dz1 (z1^2 z2) = 2 z1 z2 = 0 at z1=0; d/dz2 (2 z2^3) = 6 z2^2 = 6
    assert grads[0, 1] == pytest.approx(6.0)


def test_json_roundtrip():
    P = random_poly(2, 3)
    Q = poly_loads(poly_dumps(P))
    assert Q.n == P.n and Q.m == P.m and Q.coeffs == P.coeffs
    F = moebius_series(0.3, 3)
    G = series_from_dict(json.loads(json.dumps(series_to_dict(F))))
    assert G.a0 == F.a0
    assert all(G.parts[k].coeffs == F.parts[k].coeffs for k in range(3))
