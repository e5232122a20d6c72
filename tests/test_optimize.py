import math

import numpy as np
import pytest

from bohrlab import optimize
from bohrlab.bohr import random_series, wiener_check
from bohrlab.multiindex import enumerate_lambda
from bohrlab.optimize import (
    OptConfig,
    _ascend,
    _structured_starts,
    bohr_sum,
    lp_norm,
    majorant_sup,
    majorant_sups,
    pick_best,
    series_part_sups,
    series_sup,
    split_factorize,
    sup_norm,
    sup_norms,
)
from bohrlab.polynomial import (
    HomPoly,
    PolyBatch,
    TruncatedSeries,
    grad_batch,
    moebius_series,
)

CFG = OptConfig(restarts=16, iters=150, seed=11)
RNG = np.random.default_rng(42)


def random_poly(m, n, rng=RNG):
    alphas = list(enumerate_lambda(m, n))
    c = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
    return HomPoly(n, m, dict(zip(alphas, c)))


def test_sup_norm_z1z2():
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert sup_norm(P, 2.0, CFG).value == pytest.approx(0.5, abs=1e-9)


def _same_estimate(a, b):
    return a.value == b.value and np.array_equal(a.witness, b.witness)


def test_homogeneous_estimates_follow_changed_coefficients():
    # HomPoly holds no compiled state: after an evaluation and an estimate,
    # a changed coefficient reaches P(z) and sup_norm, which then agree
    # bitwise with the same polynomial built fresh
    cfg = OptConfig(8, 50)
    P = HomPoly(2, 2, {(1, 1): 1.0})
    assert P([1, 1]) == 1
    assert sup_norm(P, 2.0, cfg).value == pytest.approx(0.5)
    P.coeffs[(2, 0)] = 5.0
    assert P([1, 1]) == 6
    fresh = HomPoly(2, 2, {(1, 1): 1.0, (2, 0): 5.0})
    assert _same_estimate(sup_norm(P, 2.0, cfg), sup_norm(fresh, 2.0, cfg))
    assert sup_norm(P, 2.0, cfg).value > 5.0


def test_series_estimates_follow_changed_terms():
    # TruncatedSeries holds no compiled state either: a new constant term,
    # a changed part and an appended part each reach F(z), series_sup and
    # bohr_sum, which agree bitwise with the same series built fresh
    cfg = OptConfig(8, 50)
    F = TruncatedSeries(2, 0.5, [HomPoly(2, 1, {(1, 0): 0.25})])
    z = np.array([0.3, -0.4j])

    def values(G):
        return G(z), series_sup(G, 2.0, cfg), bohr_sum(G, 0.5, 2.0, cfg)

    changes = [lambda: setattr(F, "a0", -0.75 + 0j),
               lambda: F.parts[0].coeffs.update({(0, 1): 1j}),
               lambda: F.parts.append(HomPoly(2, 2, {(1, 1): 2.0}))]
    for change in changes:
        before = values(F)
        change()
        got = values(F)
        want = values(TruncatedSeries(2, F.a0, [HomPoly(2, P.m, P.coeffs) for P in F.parts]))
        assert got[0] == want[0] != before[0]
        for g, w, b in zip(got[1:], want[1:], before[1:]):
            assert _same_estimate(g, w) and g.value != b.value


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
    with pytest.raises(ValueError):
        HomPoly(1, 1, {(1,): float("nan")})
    A = np.array([[1, 0], [0, 1]])
    for bad in (math.nan, math.inf):
        for estimates in (sup_norms, majorant_sups):
            for q in (2.0, math.inf):
                with pytest.raises(ValueError):
                    estimates(A, np.array([[1.0, 0.0], [bad, 1.0]]), q, CFG)
    with pytest.raises(ValueError):
        sup_norm(HomPoly(1, 1, {(1,): 1.0}), 2.0, OptConfig(restarts=0))
    # every estimator checks its exponent, the radius and the coefficients
    F = random_series(2, 2, seed=1, budget=100)
    bad_calls = [lambda: series_sup(F, 0.5), lambda: series_sup(F, math.nan),
                 lambda: bohr_sum(F, 0.3, 0.5), lambda: bohr_sum(F, 0.3, math.nan),
                 lambda: bohr_sum(F, math.nan, 2.0), lambda: bohr_sum(F, math.inf, 2.0),
                 lambda: bohr_sum(moebius_series(0.5, 3), math.nan, 2.0)]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()


def test_constant_rows_are_exact():
    # no entry of positive degree: the modulus of the constant, at the origin
    est = sup_norm(HomPoly(2, 0, {(0, 0): 3 - 4j}), 2.0, CFG)
    assert est.value == 5.0 and not est.witness.any()
    assert series_sup(TruncatedSeries(2, -2.0, [HomPoly(2, 1, {})]), 2.0, CFG).value == 2.0
    F = random_series(2, 2, seed=1, budget=100)
    assert bohr_sum(F, 0.0, 2.0, CFG).value == abs(F.a0)


def test_structured_starts_memory_is_quadratic():
    # the n coordinate starts may share one n x n identity, not hold one each
    n = 100
    P = HomPoly(n, 1, {tuple(int(i == k) for i in range(n)): 1.0 for k in range(n)})
    A, c = P.tables()
    starts = _structured_starts(A, c[None, :], 2.0)[0]
    held = {id(s.base): s.base.nbytes for s in starts if s.base is not None}
    assert sum(held.values()) <= n * n * 16


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 3)])
def test_batched_estimates_match_single(m, n):
    # rows on the whole index set in colex order, with zero entries and a
    # single-monomial row; each one-row call sees a sorted, zero-free support
    rng = np.random.default_rng(100 * m + n)
    alphas = list(enumerate_lambda(m, n))
    A = np.array(alphas)
    C = rng.standard_normal((5, len(alphas))) + 1j * rng.standard_normal((5, len(alphas)))
    C[rng.random(C.shape) < 0.3] = 0
    C[0, 0] = 1.0
    C[1] = 0
    C[1, len(alphas) // 2] = -2.0
    single = [HomPoly(n, m, dict(zip(alphas, row))) for row in C]
    for batched, one, exps in ((sup_norms, sup_norm, (1.0, 2.0, math.inf)),
                               (majorant_sups, majorant_sup, (4 / 3, 2.0, math.inf))):
        for p in exps:
            for b, P in zip(batched(A, C, p, CFG), single):
                s = one(P, p, CFG)
                assert b.value == pytest.approx(s.value, rel=1e-12)
                # |P| is invariant under a global phase: compare moduli
                assert np.allclose(np.abs(b.witness), np.abs(s.witness))
                assert (b.restarts, b.converged) == (s.restarts, s.converged)


@pytest.mark.parametrize("n", [1, 3])
def test_mixed_degree_rows_match_single(n):
    # degree-1 and degree-2 rows on one table: each row still gets the starts
    # (the Hoelder point for the degree-1 rows) and random draws of a one-row
    # call on its own support
    rng = np.random.default_rng(30 + n)
    alphas = list(enumerate_lambda(2, n)) + list(enumerate_lambda(1, n))
    A = np.array(alphas)
    deg = A.sum(axis=1)
    C = rng.standard_normal((4, len(A))) + 1j * rng.standard_normal((4, len(A)))
    C[[0, 2]] *= deg == 1
    C[[1, 3]] *= deg == 2
    C[2, 0 if n == 1 else -1] = 0  # a zero entry among the degree-1 ones
    single = [HomPoly(n, int(deg[row != 0][0]), {a: c for a, c in zip(alphas, row) if c})
              for row in C]
    for batched, one, exps in ((sup_norms, sup_norm, (1.0, 2.0, math.inf)),
                               (majorant_sups, majorant_sup, (4 / 3, 2.0))):
        for p in exps:
            for b, P in zip(batched(A, C, p, CFG), single):
                s = one(P, p, CFG)
                assert b.value == pytest.approx(s.value, rel=1e-12)
                assert (b.restarts, b.converged) == (s.restarts, s.converged)


def _ascend_reference(fval, fgrad, project, Z0, cfg, own=None):
    """The one-halving-at-a-time driver that _ascend replaced, kept as the
    reference whose accepted steps _ascend must reproduce."""
    Z = project(Z0)
    f = fval(Z, own)
    R = Z.shape[0]
    t = np.full(R, optimize.STEP0)
    stalled = np.zeros(R, dtype=np.int64)
    for _ in range(cfg.iters):
        if (stalled >= 4).all():
            break
        G = fgrad(Z, own)
        accepted = np.zeros(R, dtype=bool)
        for _ in range(optimize.BACKTRACKS):
            todo = ~accepted & (stalled < 4)
            if not todo.any():
                break
            idx = np.flatnonzero(todo)
            cand = project(Z[todo] + t[todo, None] * G[todo])
            fc = fval(cand, None if own is None else own[idx])
            disp = ((np.conj(G[todo]) * (cand - Z[todo])).sum(axis=1)).real
            ok = fc >= f[todo] + 1e-4 * np.maximum(disp, 0.0)
            good, bad = idx[ok], idx[~ok]
            Z[good] = cand[ok]
            rel = (fc[ok] - f[good]) / np.maximum(np.abs(f[good]), 1e-300)
            stalled[good] = np.where(rel < optimize.TOL, stalled[good] + 1, 0)
            f[good] = fc[ok]
            accepted[good] = True
            t[good] = np.minimum(t[good] * 1.25, 1e3)
            t[bad] *= 0.5
        stalled[~accepted & (t < 1e-14)] = 4
    return f, Z, stalled >= 4


def _ascents(monkeypatch, run):
    """The arguments of every _ascend call that run() makes."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _ascend(*args)

    monkeypatch.setattr(optimize, "_ascend", spy)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _rowwise(fg):
    """fg called on one point at a time: a point's value and gradient then do
    not depend on the batch it sits in (batched BLAS may round them differently)."""

    def one_by_one(X, own):
        out = [fg(X[i:i + 1], None if own is None else own[i:i + 1]) for i in range(len(X))]
        return tuple(np.concatenate(part) for part in zip(*out))

    return one_by_one


def _split(fg):
    """fg as the reference driver takes it: (fval, fgrad)."""
    return (lambda X, own: fg(X, own)[0]), (lambda X, own: fg(X, own)[1])


def _assert_same_ascent(args):
    # with row-independent kernels every accepted step is the reference's,
    # bit for bit; with batched kernels only last bits may differ
    fg, *rest = args
    exact = _rowwise(fg)
    for got, want in zip(_ascend(exact, *rest), _ascend_reference(*_split(exact), *rest)):
        assert np.array_equal(got, want)
    assert np.allclose(_ascend(*args)[0], _ascend_reference(*_split(fg), *rest)[0],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows", [1, 3])
def test_ascend_matches_reference_estimators(monkeypatch, rows):
    # |F|^2 on the complex sphere / torus and the nonnegative majorant sum,
    # one polynomial (no owners) and a batch of them (owners)
    rng = np.random.default_rng(7 + rows)
    alphas = list(enumerate_lambda(3, 3))
    A = np.array(alphas)
    C = rng.standard_normal((rows, len(A))) + 1j * rng.standard_normal((rows, len(A)))
    cfg = OptConfig(restarts=12, iters=200, seed=rows)
    for p in (1.0, 2.0, math.inf):
        for args in _ascents(monkeypatch, lambda: sup_norms(A, C, p, cfg)):
            assert (args[4] is None) == (rows == 1)
            _assert_same_ascent(args)
    for q in (1.0, 4 / 3, 2.0):
        for args in _ascents(monkeypatch, lambda: majorant_sups(A, C, q, cfg)):
            _assert_same_ascent(args)
    # a series and its four parts on the series' mixed-degree table: five owners
    F = _series(20 + rows, 3, 4)
    for p in (2.0, math.inf):
        for args in _ascents(monkeypatch, lambda: series_part_sups(F, p, cfg)):
            assert args[4] is not None and len(set(args[4].tolist())) == 5
            _assert_same_ascent(args)


def _kinked(scale):
    """f(x) = -scale[own] * |x - 1/4| on the real line, with the subgradient
    -scale at the maximum x = 1/4: there every step lowers f, so every
    halving fails; far from it a large scale needs many halvings."""

    def fg(X, own):
        s = _scales(scale, own, len(X))
        return -s * np.abs(X[:, 0] - 0.25), (-s * np.where(X[:, 0] >= 0.25, 1.0, -1.0))[:, None]

    return fg, lambda X: X + 0.0


def _scales(scale, own, size):
    return np.full(size, scale[0]) if own is None else scale[own]


@pytest.mark.parametrize("owned", [False, True])
def test_ascend_matches_reference_hard_starts(owned):
    # per scale s: a start at the exact maximum (every halving fails until
    # t * s drops below the rounding of x; at s = 1e11 the t < 1e-14 rule
    # ends it in iteration 2); one whose 10th halving lands exactly on it
    # (then t = 2^-10 * 1.25 and the failed iteration 2 leaves t ~ 1.1e-15);
    # and starts whose first steps overshoot by up to s, which at s = 1e11
    # need 33 to 37 halvings, all eight rungs
    scale = np.array([1.0, 1e4, 1e11]) if owned else np.array([1e11])
    own = np.repeat(np.arange(3), 5) if owned else None
    Z0 = np.array([[x] for s in scale for x in (0.25, 0.25 - s / 1024, 0.0, 1.0, -3.0)])
    fg, project = _kinked(scale)
    for iters in (1, 2, 3, 50):
        _assert_same_ascent((fg, project, Z0, OptConfig(iters=iters), own))
    _, Z, done = _ascend(fg, project, Z0, OptConfig(iters=2), own)
    assert done[1::5].all() and (Z[1::5] == 0.25).all() and done[-5]
    # the first iteration's accepted step t = (x1 - x0) / gradient
    x1 = _ascend(fg, project, Z0, OptConfig(iters=1), own)[1]
    steps = (x1 - Z0)[:, 0] / fg(Z0, own)[1][:, 0]
    assert steps[2::5].min() == optimize.STEP0 / 2**37


def test_ascend_matches_reference_stall_counting():
    # f = C + min(x, 10) with C = 6e12: the first step (t = 0.5) gains 8e-14
    # relative, below TOL, and the next (t = 0.625) more, so a stall count
    # rises and resets; on the flat part the gains round to 0 and the
    # counts end the starts
    def fg(X, own):
        return 6e12 + np.minimum(X[:, 0], 10.0), np.ones_like(X)

    Z0 = np.array([[0.0], [5.0], [9.0]])
    for iters in (5, 10, 60):
        _assert_same_ascent((fg, lambda X: X + 0.0, Z0, OptConfig(iters=iters), None))


def _spied(fg, calls):
    """fg that records the owners of every call in calls."""

    def spy(X, own):
        calls.append(own.tolist())
        return fg(X, own)

    return spy


def test_ascend_grads_only_live_starts():
    # each start is its own polynomial, so the owners that fg receives name
    # the starts.  The calls of a run of k iterations are the first calls of
    # a longer run; the next call opens iteration k + 1 and must get exactly
    # the starts still live after k iterations, and no later call (halving
    # rungs included) may get a start that has ended
    rng = np.random.default_rng(4)
    alphas = list(enumerate_lambda(2, 3))
    A = np.array(alphas)
    c = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
    R = 10
    F = PolyBatch(A, np.tile(c, (R, 1)))
    flat = np.full(3, 3 ** -0.5, dtype=np.complex128)

    def fg(Z, own):
        vals, grads = grad_batch(F, Z, own)
        return np.abs(vals) ** 2, 2.0 * vals[:, None] * np.conj(grads)

    def project(Z):
        return optimize._proj_sphere(Z, 2.0, flat)

    Z0 = rng.standard_normal((R, 3)) + 1j * rng.standard_normal((R, 3))
    own = np.arange(R)
    got: list = []
    assert _ascend(_spied(fg, got), project, Z0, OptConfig(iters=200), own)[2].all()
    openers, first_end = [], None
    for k in range(200):
        head: list = []
        live = np.flatnonzero(~_ascend(_spied(fg, head), project, Z0, OptConfig(iters=k), own)[2])
        assert got[:len(head)] == head
        if len(head) == len(got):
            break
        assert got[len(head)] == live.tolist()
        assert all(set(owners) <= set(live.tolist()) for owners in got[len(head):])
        openers.append(len(head))
        if first_end is None and len(live) < R:
            first_end = len(head)
    assert not live.size
    # some starts ended while others went on, and a halving rung came after that
    assert first_end is not None
    assert any(j not in openers for j in range(first_end, len(got)))


@pytest.mark.parametrize("iters", [1, 2, 7, 30])
def test_ascend_evaluates_once_per_iteration(iters):
    # f = x on the real line: every first step passes and gains, so each
    # iteration is one call and only the projected starts add one more
    def fg(X, own):
        return X[:, 0] + 0.0, np.ones_like(X)

    calls: list = []
    Z0 = np.array([[1.0], [2.0], [3.0]])
    own = np.arange(3)
    done = _ascend(_spied(fg, calls), lambda X: X + 0.0, Z0, OptConfig(iters=iters), own)[2]
    assert calls == [[0, 1, 2]] * (iters + 1) and not done.any()


def test_torus_directions_are_tangent(monkeypatch):
    # for p = inf the ascent direction has no radial part at a torus point:
    # Re(conj(z_j) G_j) = 0 in every coordinate
    rng = np.random.default_rng(8)
    alphas = list(enumerate_lambda(3, 3))
    A = np.array(alphas)
    C = rng.standard_normal((3, len(A))) + 1j * rng.standard_normal((3, len(A)))
    calls = _ascents(monkeypatch, lambda: sup_norms(A, C, math.inf, CFG))
    calls += _ascents(monkeypatch, lambda: series_part_sups(_series(9, 3, 4), math.inf, CFG))
    for fg, *_, own in calls:
        Z = np.exp(2j * math.pi * rng.random((64, 3)))
        owners = None if own is None else np.sort(rng.choice(own, 64))
        G = fg(Z, owners)[1]
        assert np.abs((np.conj(Z) * G).real).max() <= 1e-12 * np.abs(G).max()


def _suite_series(seed, index):
    """Series `index` of the Wiener-type suite drawn from seed: series i has
    n = 1 + i // 2 % 3 variables and degree M = 1 + i // 6 % 4; its constant
    term and then each part's coefficients, in enumerate_lambda order, are
    (normal + 1j normal) / sqrt(2)."""
    rng = np.random.default_rng(seed)

    def draw(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)

    for i in range(index + 1):
        n, M = 1 + i // 2 % 3, 1 + i // 6 % 4
        a0, parts = complex(draw(1)[0]), []
        for k in range(1, M + 1):
            alphas = list(enumerate_lambda(k, n))
            parts.append(dict(zip(alphas, draw(len(alphas)))))
    return n, a0, parts


def test_torus_sup_normalizes_suite_series():
    # series 47 of seed 11 (n = 3, M = 4, p = inf): an ascent whose torus
    # steps kept their radial part found 16.4949 here, 5.4% under the sup,
    # so the series normalized by it was not normalized
    n, a0, parts = _suite_series(11, 47)

    def build(s):
        return TruncatedSeries(n, a0 / s, [HomPoly(n, k, {a: c / s for a, c in part.items()})
                                           for k, part in enumerate(parts, start=1)])

    sup = series_sup(build(1.0), math.inf, OptConfig(48, 300, 11)).value
    assert sup >= 17.44
    assert wiener_check(build(1.01 * sup), math.inf, 1.0, OptConfig(8, 80, 11)).all_pass


def test_pick_best_ties_take_lowest_index():
    # exact and last-bit ties go to the lowest index, in either order of the tied values
    values = np.array([1.0, 3.0, 2.0, 3.0, 3.0 * (1 - 1e-13)])
    assert pick_best(values) == 1
    assert pick_best(values[::-1]) == 0
    assert pick_best(-values) == 0


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
    M = HomPoly(3, 2, {a: abs(c) for a, c in random_poly(2, 3).coeffs.items()})
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
