import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.bohr import random_series
from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import enumerate_lambda, multiplicity
from bohrlab.optimize import sup_norms
from bohrlab.polynomial import (
    HomPoly,
    MonomialTable,
    PolyBatch,
    TruncatedSeries,
    chain_vars,
    eval_batch,
    grad_batch,
    moebius_series,
    monomials,
    multiplicities,
    poly_from_dict,
    poly_to_dict,
    series_from_dict,
    series_to_dict,
    sign_polynomial,
)
from bohrlab.polynomial import _by_owner, _columns, _runs
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


def dict_table(A):
    """The down-closure of the rows of A built from tuples and dicts, one
    walk down each item's prefixes: the reference MonomialTable must equal.
    Returns (size, var, levels, support, lower) as MonomialTable holds them."""
    A = np.asarray(A, dtype=np.int64)
    flat = chain_vars(A).tolist()
    deg = A.sum(axis=1)
    ends = np.cumsum(deg).tolist()
    js = [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]
    # drop the last occurrence of each distinct index i: j - e_i
    lower = [(t, j[k], j[:k] + j[k + 1:]) for t, j in enumerate(js)
             for k in range(len(j)) if k + 1 == len(j) or j[k] != j[k + 1]]
    by_degree = [{} for _ in range(deg.max(initial=0) + 1)]
    by_degree[0][()] = None
    for j in js + [lo for _, _, lo in lower]:
        while j not in by_degree[len(j)]:
            by_degree[len(j)][j] = None
            j = j[:-1]
    index = {j: k for k, j in enumerate(j for level in by_degree for j in level)}
    entries = list(index)
    offset = np.cumsum([0] + [len(level) for level in by_degree]).tolist()
    parent = np.array([0] + [index[j[:-1]] for j in entries[1:]], dtype=np.int64)
    var = np.array([0] + [j[-1] for j in entries[1:]], dtype=np.int64)
    levels = [(lo, hi, parent[lo:hi]) for lo, hi in zip(offset[2:-1], offset[3:])]
    support = np.array([index[j] for j in js], dtype=np.int64)
    rows, cols, low = zip(*lower) if lower else ((), (), ())
    return len(entries), var, levels, support, (np.array([index[j] for j in low], dtype=np.int64),
                                                np.array(rows, dtype=np.int64),
                                                np.array(cols, dtype=np.int64))


def assert_table_is_the_dict_build(A):
    table = MonomialTable(A)
    size, var, levels, support, lower = dict_table(A)
    assert table.size == size
    assert table.var.tolist() == var.tolist()
    assert [(lo, hi, par.tolist()) for lo, hi, par in table.levels] == [
        (lo, hi, par.tolist()) for lo, hi, par in levels]
    assert table.support.tolist() == support.tolist()
    assert [x.tolist() for x in table.lower] == [x.tolist() for x in lower]


@st.composite
def scattered_supports(draw):
    """Distinct rows of degree <= 4 in 1..5 variables, in any order, with the
    constant row among them or not."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda a: sum(a) <= 4)
    rows = draw(st.lists(row, min_size=1, max_size=25, unique_by=tuple))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
        rows = list(map(list, dict.fromkeys(map(tuple, rows))))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


@settings(max_examples=200, deadline=None)
@given(A=scattered_supports())
def test_table_of_a_scattered_support_is_the_dict_build(A):
    assert_table_is_the_dict_build(A)


@pytest.mark.parametrize("m, n", [(0, 3), (1, 1), (5, 1), (2, 4), (3, 5), (4, 16), (30, 2),
                                  (480, 2)])
def test_table_of_an_index_set_is_the_dict_build(m, n):
    assert_table_is_the_dict_build(np.array(list(enumerate_lambda(m, n))).reshape(-1, n))


def test_table_of_a_series_and_of_no_rows():
    assert_table_is_the_dict_build(moebius_series(0.5, 40).tables()[0])
    parts = [HomPoly(3, k, {a: 1.0 for a in enumerate_lambda(k, 3)}) for k in range(1, 5)]
    assert_table_is_the_dict_build(TruncatedSeries(3, 1.0, parts).tables()[0])
    assert_table_is_the_dict_build(np.zeros((0, 3), dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(lambda a: sum(a) <= 30),
    min_size=1, max_size=20)))
def test_multiplicities_are_the_exact_ones_rounded(rows):
    A = np.array(rows, dtype=np.int64)
    assert multiplicities(A).tolist() == [float(multiplicity(tuple(a))) for a in rows]


@pytest.mark.parametrize("m, n", [(30, 2), (30, 3), (12, 5), (1012, 2)])
def test_multiplicities_of_an_index_set(m, n):
    alphas = list(enumerate_lambda(m, n))
    got = multiplicities(np.array(alphas))
    assert got.tolist() == [float(multiplicity(a)) for a in alphas]


def test_batch_scatter_is_the_summed_scatter():
    # distinct rows: plain assignment writes what np.add.at summed onto zeros
    A = np.array([[2, 0, 1], [0, 0, 0], [1, 1, 1], [0, 3, 0], [1, 0, 0]])
    C = np.random.default_rng(8).standard_normal((3, 5)) + 1j
    F = PolyBatch(A, C)
    idx, terms, var = F.table.lower
    rows, k = np.unique(idx, return_inverse=True)
    cf = np.zeros((3, F.table.size), dtype=np.complex128)
    np.add.at(cf, (slice(None), F.table.support), C)
    D = np.zeros((3, rows.size, 3), dtype=np.complex128)
    np.add.at(D, (slice(None), k, var), C[:, terms] * A[terms, var])
    assert F.cf.tobytes() == cf.tobytes() and F.D.tobytes() == D.tobytes()


def test_repeated_rows_are_refused():
    A = np.array([[1, 1], [2, 0], [1, 1]])
    with pytest.raises(ValueError, match="repeated row"):
        PolyBatch(A, np.ones((1, 3), dtype=np.complex128))
    with pytest.raises(ValueError, match="repeated row"):
        sup_norms(A, np.ones((1, 3)), 2.0)


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


def full_table_grad(F, Z, own):
    """Values and gradients of grad_batch read off the whole power table:
    the values its coefficients' product, the gradients a gather of the
    derivative rows."""
    M = F.table.powers(Z)
    runs = _runs(own, len(Z))
    return _by_owner(M, F.cf, runs), _by_owner(_columns(M, F.rows), F.D, runs)


@st.composite
def homogeneous_batches(draw):
    """A PolyBatch of K <= 3 polynomials on Lambda(m, n) or on distinct rows
    of it in any order (n 1..5, m 1..6), points with zero coordinates among
    them, and owners (or None)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    alphas = list(enumerate_lambda(m, n))
    if draw(st.booleans()):
        pick = list(range(len(alphas)))
    else:
        pick = draw(st.lists(st.integers(0, len(alphas) - 1), min_size=1, max_size=30,
                             unique=True))
    A = np.array([alphas[i] for i in pick], dtype=np.int64).reshape(len(pick), n)
    K, R = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.standard_normal((K, len(A))) + 1j * rng.standard_normal((K, len(A)))
    Z = rng.standard_normal((R, n)) + 1j * rng.standard_normal((R, n))
    Z[rng.random((R, n)) < 0.2] = 0
    own = draw(st.none() | st.lists(st.integers(0, K - 1), min_size=R, max_size=R).map(np.array))
    return PolyBatch(A, C), Z, own


@settings(max_examples=300, deadline=None)
@given(case=homogeneous_batches())
def test_homogeneous_values_come_from_the_gradients(case):
    # one degree m: the gradients are the full table's bit for bit, the
    # values m P(z) = sum_i z_i dP/dz_i agree with eval_batch
    F, Z, own = case
    assert F.m == F.A.sum(axis=1)[0] and F.prefix == F.table.size - len(F.A)
    vals, grads = grad_batch(F, Z, own)
    _, want = full_table_grad(F, Z, own)
    assert grads.tobytes() == want.tobytes()
    ref = eval_batch(F, Z, own)
    scale = np.abs(F.C).sum(axis=1).max() * max(1.0, np.abs(Z).max()) ** F.m
    assert np.abs(vals - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("own", [None, np.array([0, 0, 1, 1, 0, 1])])
def test_mixed_degree_batches_read_the_whole_table(own):
    parts = [random_poly(k, 3) for k in (1, 2, 3)]
    A, c = TruncatedSeries(3, 0.3 - 0.1j, parts).tables()
    F = PolyBatch(A, np.vstack([c, 2j * c]))
    assert F.m is None and F.prefix == F.table.size
    Z = _points(6, 3, zero_rows=2)
    vals, grads = grad_batch(F, Z, own)
    want_v, want_g = full_table_grad(F, Z, own)
    assert vals.tobytes() == want_v.tobytes() and grads.tobytes() == want_g.tobytes()


def test_homogeneous_kernel_builds_no_top_degree():
    # Lambda(4, 16): 3876 of the table's 4845 entries have degree 4, and
    # the ascent's gradients and values need none of them
    rng = np.random.default_rng(62)
    A = np.array(list(enumerate_lambda(4, 16)))
    batch = PolyBatch(A, rng.choice([-1.0, 1.0], (8, len(A))) + 0j)
    Z = rng.standard_normal((152, 16)) + 1j * rng.standard_normal((152, 16))
    assert batch.table.size == 4845
    tracemalloc.start()
    try:
        grad_batch(batch, Z, np.arange(152) % 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 152 * 4845 * 16


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
