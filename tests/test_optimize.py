import math
import tracemalloc

import numpy as np
import pytest

from bohrlab import optimize, witness
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
    sup_norm,
    sup_norms,
)
from bohrlab.polynomial import (
    HomPoly,
    PolyBatch,
    TruncatedSeries,
    eval_batch,
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
                 lambda: bohr_sum(moebius_series(0.5, 3), math.nan, 2.0),
                 # one variable: q is checked, though every valid q gives the same sum
                 lambda: bohr_sum(moebius_series(0.5, 3), 0.3, 0.5),
                 lambda: bohr_sum(moebius_series(0.5, 3), 0.3, math.nan),
                 lambda: series_sup(moebius_series(0.5, 3), 0.5)]
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


def test_structured_starts_memory_is_linear():
    # the n coordinate starts are built in blocks by the ascent's caller,
    # so the other structured starts of a row hold O(n) entries, even when
    # every coefficient ties for the largest modulus
    n = 100
    P = HomPoly(n, 1, {tuple(int(i == k) for i in range(n)): 1.0 for k in range(n)})
    A, c = P.tables()
    starts = _structured_starts(A, c[None, :], 2.0)[0]
    assert len(starts) <= 3 and all(s.shape == (n,) for s in starts)


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
    # a series is one row of its own table, with the same starts
    F = _series(m, n, m)
    A, c = F.tables()
    for p in (1.0, 2.0, math.inf):
        assert _same_estimate(series_sup(F, p, CFG), sup_norms(A, c[None, :], p, CFG)[0])


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


def _ascend_reference(fval, fgrad, retract, X0, cfg, own=None):
    """The one-halving-at-a-time driver, every start in lockstep, kept as
    the reference whose accepted steps _ascend must reproduce: quasi-Newton
    ascent on a logarithm.  Each iteration a start steps along
    optimize._direction(H, G, cap), H G cut to length cap (STEP_CAP when
    there is a retraction, else no cap), and retracts each try before it
    is evaluated.  H starts as the identity and is updated by
    optimize._bfgs after each accepted step; it stays the identity unless
    d <= 2 cfg.iters and the R matrices fit in BATCH_ENTRIES entries.  t
    starts at 1; after an accepted step t it is 1 again where H is kept,
    else min(1, 2 t).  A gain counts as a difference, and a start whose
    step promises G . D < TOL, before an iteration or after the last, has
    converged."""
    X = X0.copy() if retract is None else retract(X0)
    f = fval(X, own)
    R, d = X.shape
    t = np.ones(R)
    H = np.tile(np.eye(d), (R, 1, 1))
    kept = d <= 2 * cfg.iters and R * d * d <= optimize.BATCH_ENTRIES
    cap = math.inf if retract is None else optimize.STEP_CAP
    stalled = np.zeros(R, dtype=np.int64)

    def owners(idx):
        return None if own is None else own[idx]

    def promise():
        G = fgrad(X, own)
        D, gain = optimize._direction(H if kept else None, G, cap)
        stalled[gain < optimize.TOL] = 4
        return G, D

    for _ in range(cfg.iters):
        G, D = promise()
        if (stalled >= 4).all():
            break
        accepted = np.zeros(R, dtype=bool)
        for _ in range(optimize.BACKTRACKS):
            todo = ~accepted & (stalled < 4)
            if not todo.any():
                break
            idx = np.flatnonzero(todo)
            cand = X[todo] + t[todo, None] * D[todo]
            cand = cand if retract is None else retract(cand)
            fc = fval(cand, owners(idx))
            ok = fc >= f[todo] + 1e-4 * np.maximum(np.vecdot(G[todo], cand - X[todo]), 0.0)
            good, bad = idx[ok], idx[~ok]
            if kept and good.size:
                gc = fgrad(cand[ok], owners(good))
                H[good] = optimize._bfgs(H[good], cand[ok] - X[good], G[good] - gc)
            gain = fc[ok] - f[good]
            X[good] = cand[ok]
            stalled[good] = np.where(gain < optimize.TOL, stalled[good] + 1, 0)
            f[good] = fc[ok]
            accepted[good] = True
            t[good] = 1.0 if kept else np.minimum(2.0 * t[good], 1.0)
            t[bad] *= 0.5
        stalled[~accepted & (t < 1e-14)] = 4
    promise()
    return f, X, stalled >= 4


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
    # bit for bit; with batched kernels only last bits may differ (the
    # values are logarithms: an absolute 1e-12 is 1e-12 of the objective)
    fg, *rest = args
    exact = _rowwise(fg)
    for got, want in zip(_ascend(exact, *rest), _ascend_reference(*_split(exact), *rest)):
        assert np.array_equal(got, want)
    assert np.allclose(_ascend(*args)[0], _ascend_reference(*_split(fg), *rest)[0],
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3])
def test_ascend_matches_reference_estimators(monkeypatch, rows):
    # ln |F|^2 on the complex sphere and ln F on the nonnegative sphere
    # (each try retracted), ln |F|^2 in torus angles (no retraction), one
    # polynomial (no owners) and a batch of them (owners)
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


def test_ascend_matches_reference_without_bfgs_matrices(monkeypatch):
    # the ascent keeps no BFGS matrices past 2 cfg.iters real dimensions
    # (sphere rows in n = 3 complex variables are 6 real ones; 2 iterations
    # cannot pay for them) or past BATCH_ENTRIES entries (BATCH_ENTRIES =
    # 1000 splits the 32 torus starts of a linear form in 12 variables into
    # ascents of 10, whose 10 x 12 x 12 entries do not fit); it then steps
    # along its gradient, opening each iteration at twice its last accepted
    # step (at most 1), and the reference keeps its H as the identity by the
    # same rules
    rng = np.random.default_rng(12)
    A = np.array(list(enumerate_lambda(3, 3)))
    C = rng.standard_normal((2, len(A))) + 1j * rng.standard_normal((2, len(A)))
    for p, iters in ((2.0, 2), (1.0, 2), (math.inf, 1)):
        for args in _ascents(monkeypatch, lambda: sup_norms(A, C, p, OptConfig(12, iters, 5))):
            assert args[2].shape[1] > 2 * iters
            _assert_same_ascent(args)
    n = 12
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    run = lambda: sup_norms(np.eye(n, dtype=np.int64), c[None, :], math.inf, OptConfig(12, 200, 5))
    monkeypatch.setattr(optimize, "BATCH_ENTRIES", 1000)
    calls = _ascents(monkeypatch, run)  # which undoes the setting
    monkeypatch.setattr(optimize, "BATCH_ENTRIES", 1000)
    assert [len(args[2]) for args in calls] == [10, 10, 10, 2]
    for args in calls:
        _assert_same_ascent(args)


def _kinked(scale):
    """f(x) = -scale[own] * |x - 1/4| on the real line, with the subgradient
    -scale at the maximum x = 1/4: there every step lowers f, so every
    halving fails."""

    def fg(X, own):
        s = _scales(scale, own, len(X))
        return -s * np.abs(X[:, 0] - 0.25), (-s * np.where(X[:, 0] >= 0.25, 1.0, -1.0))[:, None]

    return fg, lambda X: X + 0.0


def _scales(scale, own, size):
    return np.full(size, scale[0]) if own is None else scale[own]


@pytest.mark.parametrize("owned", [False, True])
def test_ascend_matches_reference_hard_starts(owned):
    # per scale s: a start at the exact maximum (every halving fails); one
    # 2^-30 below it, whose first step (cut to STEP_CAP = 2) lands exactly
    # on it after 31 halvings, through all eight rungs; and starts whose
    # first steps overshoot.  The steps do not see s: the step is cut to
    # STEP_CAP, and only the BFGS curvature (a ratio) reads the slopes
    scale = np.array([1.0, 1e4, 1e11]) if owned else np.array([1e11])
    own = np.repeat(np.arange(3), 5) if owned else None
    Z0 = np.array([[x] for _ in scale for x in (0.25, 0.25 - 2.0**-30, 0.0, 1.0, -3.0)])
    fg, retract = _kinked(scale)
    for iters in (1, 2, 3, 50):
        _assert_same_ascent((fg, retract, Z0, OptConfig(iters=iters), own))
    x1 = _ascend(fg, retract, Z0, OptConfig(iters=1), own)[1]
    assert (x1[0::5] == 0.25).all() and (x1[1::5] == 0.25).all()
    _, x, done = _ascend(fg, retract, Z0, OptConfig(iters=50), own)
    assert done.all() and (x == 0.25).all()


def test_ascend_matches_reference_stall_counting():
    # f = C + 3e-4 min(x, 40) with C = 6e12 and slope 1: every step has
    # length 1 (y = 0 leaves H the identity), and f rounds to multiples of
    # 2^-10, so a step's gain is 0 (a stall) or one unit, every third or
    # fourth step: stall counts rise and reset; on the flat part the gains
    # are 0, each passes the Armijo test (1e-4 rounds away on C), and the
    # counts end the starts
    def fg(X, own):
        return 6e12 + 3e-4 * np.minimum(X[:, 0], 40.0), np.ones_like(X)

    Z0 = np.array([[0.0], [5.0], [9.0]])
    for iters in (5, 10, 60):
        _assert_same_ascent((fg, lambda X: X + 0.0, Z0, OptConfig(iters=iters), None))
    _, X, done = _ascend(fg, lambda X: X + 0.0, Z0, OptConfig(iters=60), None)
    assert done.all() and (X[:, 0] > 40).all() and (X[:, 0] <= 44).all()


def _spied(fg, calls):
    """fg that records the owners of every call in calls."""

    def spy(X, own):
        calls.append(own.tolist())
        return fg(X, own)

    return spy


def test_ascend_grads_only_live_starts():
    # start i climbs f = min(x, k_i - 1/2) from 0 with slope 1 below its cap
    # and 0 from it on: steps of length 1 all pass, the step of turn k_i
    # crosses the cap, and there the gradient is 0, so the start promises
    # no gain and ends after turn k_i, or after its iters-th turn.  Call 0
    # holds the starts, call j turn j, and each start is its own polynomial,
    # so call j must name exactly the starts with j <= min(k_i, iters)
    k = np.array([1, 5, 2, 9, 3, 14, 7])
    cap = k - 0.5

    def fg(X, own):
        c = cap[own]
        return np.minimum(X[:, 0], c), (X[:, 0] < c).astype(float)[:, None]

    own = np.arange(len(k))
    for iters in (6, 12, 50):
        calls: list = []
        _, _, done = _ascend(_spied(fg, calls), lambda X: X + 0.0, np.zeros((len(k), 1)),
                             OptConfig(iters=iters), own)
        last = np.minimum(k, iters)
        assert calls == [own[j <= last].tolist() for j in range(last.max() + 1)]
        assert (done == (k <= iters)).all()


def test_ascend_turns_share_one_call(monkeypatch):
    # on the l_{4/3} sphere, whose curvature grows without bound near
    # z_i = 0, so first steps fail there, with halving rungs: each call
    # names the live starts in start order, a start's rung
    # side by side; a start sits in a prefix of the calls (it never skips a
    # turn, never comes back after it ended); no call holds more points
    # than the first; and some starts end while others go on, with rungs of
    # several halvings after that.  The objective is sup_norm's own, each
    # start named as its own owner
    rng = np.random.default_rng(4)
    P = HomPoly(3, 2, dict(zip(enumerate_lambda(2, 3), rng.standard_normal(6) + 1j)))
    (fg, retract, X0, cfg, _), = _ascents(monkeypatch, lambda: sup_norm(P, 4 / 3, OptConfig(10)))
    R = len(X0)
    calls: list = []
    spy = _spied(lambda X, own: fg(X, None), calls)
    assert _ascend(spy, retract, X0, cfg, np.arange(R))[2].all()
    assert calls[0] == list(range(R))
    assert all(len(c) <= R and c == sorted(c) for c in calls)
    held = np.array([[i in c for i in range(R)] for c in calls])
    assert (held[1:] <= held[:-1]).all()  # once out, never back
    ended = np.flatnonzero(held.sum(axis=1) < R)[0]
    assert any(len(c) > len(set(c)) for c in calls[ended:])


@pytest.mark.parametrize("iters", [1, 2, 7, 30])
def test_ascend_evaluates_once_per_iteration(iters):
    # f = x on the real line: every first step passes and gains (y = 0
    # leaves H the identity), so each iteration is one call and only the
    # starts add one more
    def fg(X, own):
        return X[:, 0] + 0.0, np.ones_like(X)

    calls: list = []
    Z0 = np.array([[1.0], [2.0], [3.0]])
    own = np.arange(3)
    done = _ascend(_spied(fg, calls), lambda X: X + 0.0, Z0, OptConfig(iters=iters), own)[2]
    assert calls == [[0, 1, 2]] * (iters + 1) and not done.any()


def _step_log(monkeypatch, iters):
    """The step each iteration of one start opens at, and the step it
    accepts, climbing f = -5 |x|^2 / 2 in d = 12 from |x| = 1/10: along the
    gradient (H the identity) the steps 1 and 1/2 fail the Armijo test and
    1/4 passes.  Every turn makes one fg call and then one _direction call;
    a try's step is read off its displacement along the direction in use,
    and the Armijo test tells which try a turn accepts."""
    events = []

    def fg(X, own):
        f, g = -2.5 * np.vecdot(X, X), -5.0 * X
        events.append((X.copy(), f.copy(), g.copy()))  # _ascend writes into these arrays
        return f, g

    direction = optimize._direction

    def spy(H, G, cap):
        D, gain = direction(H, G, cap)
        events.append(D.copy())
        return D, gain

    monkeypatch.setattr(optimize, "_direction", spy)
    _ascend(fg, lambda X: X + 0.0, np.full((1, 12), 0.1 / math.sqrt(12)), OptConfig(iters=iters))
    (x, f, g), D = events[:2]
    opened, accepted, opening = [], [], True
    for (cand, fc, gc), Dz in zip(events[2::2], events[3::2]):
        steps = np.vecdot(cand - x, D) / np.vecdot(D, D)
        if opening:
            opened.append(float(steps[0]))
        ok = np.flatnonzero(fc >= f + 1e-4 * np.maximum(np.vecdot(g, cand - x), 0.0))
        opening = ok.size > 0
        if opening:
            i = ok[0]
            accepted.append(float(steps[i]))
            x, f, g, D = cand[i:i + 1], fc[i], gc[i:i + 1], Dz
    return opened, accepted


def test_ascend_step_memory_without_bfgs_matrices(monkeypatch):
    # d = 12 > 2 cfg.iters: no BFGS matrix, so an iteration opens at twice
    # the step its predecessor accepted, at most 1
    opened, accepted = _step_log(monkeypatch, 5)
    assert accepted == pytest.approx([0.25] * 5, rel=1e-9)
    assert opened[0] == pytest.approx(1.0, rel=1e-9)
    assert opened[1:] == pytest.approx([min(1.0, 2 * t) for t in accepted[:-1]], rel=1e-9)


def test_ascend_bfgs_starts_open_at_one(monkeypatch):
    # d = 12 <= 2 cfg.iters: a quasi-Newton step has natural length 1, so
    # every iteration opens there (the second one is the Newton step to 0)
    opened, accepted = _step_log(monkeypatch, 6)
    assert accepted[0] == pytest.approx(0.25, rel=1e-9)
    assert len(opened) >= 2 and opened == pytest.approx([1.0] * len(opened), rel=1e-9)


def test_torus_gradient_is_the_angle_derivative(monkeypatch):
    # at p = inf every ascent runs in angles theta (no projection) on
    # ln |F(e^(i theta))|^2; its values are that function, evaluated apart
    # from the ascent, and its gradient a central difference of it
    rng = np.random.default_rng(8)
    A = np.array(list(enumerate_lambda(3, 3)))
    C = rng.standard_normal((3, len(A))) + 1j * rng.standard_normal((3, len(A)))
    F = _series(9, 3, 4)
    cases = [(lambda: sup_norms(A, C, math.inf, CFG), A, C),
             (lambda: series_sup(F, math.inf, CFG), *F.tables())]
    for run, A_, C_ in cases:
        K = PolyBatch(A_, np.atleast_2d(C_))
        for fg, project, _, _, own in _ascents(monkeypatch, run):
            assert project is None
            T = 2 * math.pi * rng.random((64, 3))
            owners = None if own is None else np.sort(rng.choice(own, 64))

            def lnf(X):
                return 2 * np.log(np.abs(eval_batch(K, np.exp(1j * X), owners)))

            f, g = fg(T, owners)
            assert np.allclose(f, lnf(T), rtol=1e-13, atol=1e-13)
            h = 1e-6
            for j in range(3):
                E = np.zeros_like(T)
                E[:, j] = h
                fd = (lnf(T + E) - lnf(T - E)) / (2 * h)
                assert np.allclose(g[:, j], fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("p, nonneg", [(1.0, False), (4 / 3, False), (2.0, False), (3.0, False),
                                       (4 / 3, True), (2.0, True)])
def test_sphere_gradient_is_the_derivative_along_the_retraction(monkeypatch, p, nonneg):
    # for p < inf each try is retracted onto the sphere before it is
    # evaluated, so the ascent climbs x -> f(retract(x)); its gradient g at
    # a point of the sphere gives that function's derivative along any v
    # (central differences), and Re<x, g> = 0: the gradient is tangent
    rng = np.random.default_rng(10)
    A = np.array(list(enumerate_lambda(3, 3)))
    C = rng.standard_normal((1, len(A))) + 1j * rng.standard_normal((1, len(A)))
    est = majorant_sups if nonneg else sup_norms
    (fg, retract, X0, _, own), = _ascents(monkeypatch, lambda: est(A, C, p, CFG))
    X = retract(X0)
    X = X[(np.abs(X) > 0.01).all(axis=1)]  # away from z_i = 0 (kinks, the clip at 0)
    assert len(X) >= 5
    f, G = fg(X, own)
    assert np.allclose(np.vecdot(X, G), 0.0, atol=1e-12)
    h = 1e-6
    for v in rng.standard_normal((3, *X.shape)):
        fd = (fg(retract(X + h * v), own)[0] - fg(retract(X - h * v), own)[0]) / (2 * h)
        assert np.allclose(np.vecdot(G, v), fd, rtol=1e-5, atol=1e-6)


def test_torus_ascent_passes_zeros_of_f():
    # z1 - z2 vanishes at the flat torus point, where ln |F|^2 has no value:
    # that start stays at the floor, promises no gain and ends without a
    # warning (the suite turns RuntimeWarnings into errors), and the other
    # starts find 2
    P = HomPoly(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    assert sup_norm(P, math.inf, CFG).value == pytest.approx(2.0, rel=1e-12)
    F = TruncatedSeries(2, 0.0, [P])
    est = series_sup(F, math.inf, CFG)
    assert est.value == pytest.approx(2.0, rel=1e-12) and est.converged


def test_sphere_ascent_passes_zeros_of_f(monkeypatch):
    # z1 z2 vanishes at the coordinate start e_1: ln |F|^2 is floored there,
    # dF / F has a zero row, and the start promises no gain and ends
    # without a warning (the suite turns RuntimeWarnings into errors); near
    # a zero dF / F stays finite, and the other starts find 1/2
    P = HomPoly(2, 2, {(1, 1): 1.0})
    for est in (sup_norm(P, 2.0, CFG), majorant_sup(P, 2.0, CFG)):
        assert est.value == pytest.approx(0.5, rel=1e-12) and est.converged
    (fg, retract, X0, cfg, own), = _ascents(monkeypatch, lambda: sup_norm(P, 2.0, CFG))
    e1 = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1e-300, 0.0]])
    f, G = fg(e1, None)
    assert f[0] == 2 * math.log(optimize.FLOOR) and not G[0].any() and np.isfinite(G).all()
    _, X, done = _ascend(fg, retract, e1[:1], cfg, own)
    assert done.all() and np.array_equal(X, e1[:1])


def test_torus_ascent_memory_is_bounded_at_large_n():
    # TORUS_STARTS = 32 starts in n = 2000 variables: their BFGS matrices
    # would hold 128M entries (1 GB); past BATCH_ENTRIES the torus ascent
    # keeps none and steps along its gradient, and the Hoelder start of a
    # linear form still gives the exact sum of moduli
    n = 2000
    rng = np.random.default_rng(6)
    A = np.eye(n, dtype=np.int64)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        est = sup_norms(A, c[None, :], math.inf, OptConfig(16, 20, 1))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value == pytest.approx(np.abs(c).sum(), rel=1e-12)
    assert peak < 64 * 2**20


def test_sphere_ascent_memory_is_bounded_at_large_n():
    # 8 linear forms in n = 2000 variables at p = 2: each row has n
    # coordinate starts, 8 x 2004 starts of 2000 complex coordinates
    # (513 MB) in all.  The starts are built in blocks, a row's starts split
    # into ascents of at most BATCH_ENTRIES / (8 n) of them, and the real
    # dimension 4000 keeps no BFGS matrices; the Hoelder start still gives
    # the exact l_2 norm of each coefficient row
    n = 2000
    rng = np.random.default_rng(9)
    A = np.eye(n, dtype=np.int64)
    C = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
    tracemalloc.start()
    try:
        ests = sup_norms(A, C, 2.0, OptConfig(1, 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for est, c in zip(ests, C):
        assert est.value == pytest.approx(np.linalg.norm(c), rel=1e-12)
        assert est.restarts == n + 4
    assert peak < 64 * 2**20


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_split_rows_take_every_start_once(monkeypatch, p):
    # a row's n + 4 starts (6 coordinate, flat, monomial, Hoelder, one
    # random) split into ascents of cap = BATCH_ENTRIES // (8 n) starts, for
    # every cap: blocks that end before, at and after the last coordinate
    # start.  Every start runs once, and the Hoelder start gives the exact
    # norm of each linear form: ||c||_2 at p = 2, max |c_i| at p = 1
    n = 6
    rng = np.random.default_rng(5)
    A = np.eye(n, dtype=np.int64)
    C = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    exact = np.linalg.norm(C, axis=1) if p == 2 else np.abs(C).max(axis=1)
    calls = []
    ascend = optimize._ascend

    def counted(fg, retract, X0, cfg, own=None):
        calls.append(len(X0))
        return ascend(fg, retract, X0, cfg, own)

    monkeypatch.setattr(optimize, "_ascend", counted)
    for cap in range(1, n + 6):
        monkeypatch.setattr(optimize, "BATCH_ENTRIES", 8 * n * cap)
        calls.clear()
        ests = sup_norms(A, C, p, OptConfig(1, 1, 0))
        assert max(calls) <= cap and sum(calls) == 3 * (n + 4)
        for est, v in zip(ests, exact):
            assert est.value == pytest.approx(v, rel=1e-12)
            assert est.restarts == n + 4


def test_split_just_short_of_the_coordinate_starts():
    # n = 363 at p = 2: cap = 2^20 // (8 n) = 361 starts, so a row's first
    # ascent ends two starts before its last coordinate start
    n = 363
    assert optimize.BATCH_ENTRIES // (8 * n) == n - 2
    rng = np.random.default_rng(6)
    C = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    ests = sup_norms(np.eye(n, dtype=np.int64), C, 2.0, OptConfig(1, 1, 0))
    for est, c in zip(ests, C):
        assert est.value == pytest.approx(np.linalg.norm(c), rel=1e-12)


def test_torus_starts_are_distinct(monkeypatch):
    # every coordinate start lies on the flat torus point, so a p = inf row
    # starts from that point once and from random draws; a degree-1 row with
    # positive coefficients has its Hoelder point there too.  No two starts
    # of one row are equal, and each row has its budget of them:
    # cfg.restarts, and at least TORUS_STARTS.  A one-variable row is on the
    # torus at every p (its coordinate, flat and monomial starts are all 1)
    A = np.array(list(enumerate_lambda(1, 3)) + list(enumerate_lambda(2, 3)))
    C = np.zeros((3, len(A)), dtype=np.complex128)
    C[0, :3] = [1.0, 2.0, 0.5]  # degree 1, real positive: Hoelder point = flat point
    C[1, :3] = [1.0, -2.0, 1j]
    C[2] = np.arange(1, len(A) + 1)
    A1 = np.array([[1], [2], [3]])
    C1 = np.array([[2.0, 0, 0], [1j, 0, 0], [0, 1.0, -3.0]])
    for cfg, budget in ((OptConfig(8, 20, 3), optimize.TORUS_STARTS), (OptConfig(40, 20, 3), 40)):
        runs = [lambda: sup_norms(A, C, math.inf, cfg),
                lambda: series_sup(_series(5, 3, 2), math.inf, cfg),
                lambda: series_part_sups(_series(5, 3, 2), math.inf, cfg),
                lambda: sup_norms(A1, C1, 2.0, cfg),
                lambda: series_sup(_series(5, 1, 3), 2.0, cfg),
                lambda: series_part_sups(_series(5, 1, 3), 2.0, cfg)]
        for run in runs:
            for _, _, T0, _, own in _ascents(monkeypatch, run):
                owners = np.zeros(len(T0), dtype=int) if own is None else own
                for k in np.unique(owners):
                    Z = np.exp(1j * T0[owners == k])
                    assert len(Z) == budget
                    assert len(np.unique(Z.round(12), axis=0)) == len(Z)


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


def _suite(seed, index, scale=1.0):
    """_suite_series(seed, index) as a TruncatedSeries, coefficients times scale."""
    n, a0, parts = _suite_series(seed, index)
    return TruncatedSeries(n, a0 * scale, [HomPoly(n, k, {a: c * scale for a, c in part.items()})
                                           for k, part in enumerate(parts, start=1)])


def test_torus_sup_normalizes_suite_series():
    # series 47 of seed 11 (n = 3, M = 4, p = inf): an ascent whose torus
    # steps kept their radial part found 16.4949 here, 5.4% under the sup,
    # so the series normalized by it was not normalized
    sup = series_sup(_suite(11, 47), math.inf, OptConfig(48, 300, 11)).value
    assert sup >= 17.44
    assert wiener_check(_suite(11, 47, 1 / (1.01 * sup)), math.inf, 1.0,
                        OptConfig(8, 80, 11)).all_pass


def test_torus_sup_finds_the_top_basin_of_suite_series_95():
    # series 95 of seed 3 (n = 3, M = 4): 48 restarts of the projected
    # tangent ascent found 14.954, 2.5% under the 15.33399 that more
    # restarts reach
    assert series_sup(_suite(3, 95), math.inf, OptConfig(48, 300, 3)).value >= 15.3339


@pytest.mark.parametrize("seed, index, row, floor", [(12, 71, 0, 17.196038), (6, 21, 0, 8.2517),
                                                      (11, 41, 3, 5.380315), (3, 47, 0, 15.385801)])
def test_torus_part_rows_find_the_top_basin(seed, index, row, floor):
    # wiener_check's series_part_sups rows at 8 restarts: 8 quasi-Newton
    # starts end in lower basins here (13.200, 6.424, 4.632 and 13.647);
    # the TORUS_STARTS floor reaches the top ones
    est = series_part_sups(_suite(seed, index), math.inf, OptConfig(8, 80, seed))[row]
    assert est.value >= floor


@pytest.mark.parametrize("c", [2.0**-20, 2.0**-3, 2.0**5, 2.0**30])
def test_torus_estimates_are_scale_free(c):
    # the torus ascent runs on ln |F|^2, whose angle gradient does not see
    # the coefficient scale: every p = inf estimate of cF is c times F's
    F, cF = _suite(11, 47), _suite(11, 47, c)
    cfg, small = OptConfig(48, 300, 11), OptConfig(8, 80, 11)
    pairs = [(series_sup(cF, math.inf, cfg), series_sup(F, math.inf, cfg)),
             (sup_norm(cF.parts[-1], math.inf, small), sup_norm(F.parts[-1], math.inf, small)),
             *zip(series_part_sups(cF, math.inf, small), series_part_sups(F, math.inf, small))]
    for got, base in pairs:
        assert got.value == pytest.approx(c * base.value, rel=1e-9)


@pytest.mark.parametrize("c", [2.0**-20, 2.0**-3, 2.0**5, 2.0**30])
def test_sphere_estimates_are_scale_free(c):
    # at p < inf every row ascends a logarithm too (ln |F|^2 on the sphere,
    # ln F for the majorant), whose gradient does not see the coefficient
    # scale: every p = 2 estimate of cF is c times F's.  The projected
    # gradient ascent on |F|^2 took steps that did: its series_sup was 16%
    # low at 2^-20 and its series_part_sups rows up to 50%
    F, cF = _suite(11, 47), _suite(11, 47, c)
    cfg, small = OptConfig(48, 300, 11), OptConfig(8, 80, 11)
    pairs = [(series_sup(cF, 2.0, cfg), series_sup(F, 2.0, cfg)),
             (sup_norm(cF.parts[-1], 2.0, small), sup_norm(F.parts[-1], 2.0, small)),
             (majorant_sup(cF.parts[-1], 2.0, small), majorant_sup(F.parts[-1], 2.0, small)),
             *zip(series_part_sups(cF, 2.0, small), series_part_sups(F, 2.0, small))]
    for got, base in pairs:
        assert got.value == pytest.approx(c * base.value, rel=1e-9)


@pytest.mark.parametrize("seed, index, p, floor", [(3, 95, 4 / 3, 4.355974), (3, 95, 1.0, 4.351356),
                                                   (11, 46, 1.0, 5.847472),
                                                   (11, 88, 4 / 3, 3.038970)])
def test_sphere_sup_finds_the_top_basin(seed, index, p, floor):
    # the normalizing estimate (48 restarts) of suite series at p = 4/3 and
    # p = 1, where the projected gradient ascent found 3.9516, 2.8694,
    # 3.4889 and 2.9167; 800 restarts reach no higher than the floors
    assert series_sup(_suite(seed, index), p, OptConfig(48, 300, seed)).value >= floor


def test_random_series_normalizes_at_p_4_3():
    # random_series divides by 1.01 times its 48-restart sup estimate, so a
    # low estimate shows as a large constant term: the projected ascent
    # left |a0| = 0.53371 here
    assert abs(random_series(3, 3, 3, 1000, p=4 / 3).a0) <= 0.5235


def test_suite_series_call_budget(monkeypatch):
    # grad_batch calls of one normalizing estimate: every live start puts
    # its next tries into one shared call per turn, and the quasi-Newton
    # steps converge in few turns (the projected tangent ascent took 505
    # calls at p = inf, and the projected gradient ascent 343 at p = 2)
    calls = []

    def counted(*args):
        calls.append(1)
        return grad_batch(*args)

    monkeypatch.setattr(optimize, "grad_batch", counted)
    for p, budget in ((math.inf, 250), (2.0, 160)):
        calls.clear()
        series_sup(_suite(11, 47), p, OptConfig(48, 300, 11))
        assert len(calls) <= budget


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bohr_sum_is_the_majorant_of_the_scaled_row(n):
    # sum |c_alpha z^alpha| over the radius-r ball is the majorant of the
    # row |c_alpha| r^|alpha| over the unit ball, at the witness scaled by
    # r; in one variable the nonnegative l_q sphere is the point 1, so every
    # q gives the exact q = inf sum
    cfg = OptConfig(8, 80, n)
    for seed in (60, 61):
        F = _series(seed, n, 3)
        A, c = F.tables()
        moduli = np.array([abs(x) for x in c])
        for q in (1.0, 4 / 3, 2.0, math.inf):
            for r in (0.0, 0.3, 1.0):
                got = bohr_sum(F, r, q, cfg)
                row = (moduli * r ** A.sum(axis=1))[None, :]
                want = majorant_sups(A, row, math.inf if n == 1 else q, cfg)[0]
                assert got.value == want.value
                assert np.array_equal(got.witness, r * want.witness)


def test_step_cap_has_one_home(monkeypatch):
    # the sign search's float-range bound rests on the ascent's step cap
    assert witness.STEP_CAP is optimize.STEP_CAP
    # f = 40 x on the real line, retracted by the identity: every step
    # H g = 40 is cut to the cap, so each try moves a point exactly that
    # far (the first tries of each iteration pass), whichever cap is set
    monkeypatch.setattr(optimize, "STEP_CAP", 0.75)
    points = []

    def fg(X, own):
        points.append(X[0, 0])
        return 40.0 * X[:, 0], np.full_like(X, 40.0)

    _ascend(fg, lambda X: X + 0.0, np.array([[0.0]]), OptConfig(iters=12), None)
    assert len(points) == 13 and (np.diff(points) == 0.75).all()
    # on the sphere every try starts from a point of moduli <= 1, so its
    # moduli stay below 1 + cap; without the cap the first steps go past it
    P = HomPoly(2, 3, {(3, 0): 2.0, (1, 2): -3.0, (0, 3): 1j})
    real_ascend = optimize._ascend

    def largest_try(cap):
        monkeypatch.setattr(optimize, "STEP_CAP", cap)
        tries = []

        def spy(fg, retract, X0, cfg, own):
            def measured(X):
                tries.append(np.abs(X.view(np.complex128)).max())
                return retract(X)

            return real_ascend(fg, measured, X0, cfg, own)

        monkeypatch.setattr(optimize, "_ascend", spy)
        sup_norm(P, 2.0, OptConfig(4, 30))
        monkeypatch.setattr(optimize, "_ascend", real_ascend)
        return max(tries[1:])  # tries[0]: the starts

    assert largest_try(0.75) <= 1.75 < largest_try(math.inf)


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
    a, M = 0.5, 30
    F = moebius_series(a, M)
    # the automorphism has modulus 1 on the circle, and the truncation
    # drops a tail of modulus at most (1 - a^2) a^M / (1 - a) = a^M (1 + a)
    # there, so the sup lies within that of 1, on either side
    v = series_sup(F, 2.0, OptConfig(restarts=32, seed=0)).value
    assert 0.95 <= v <= 1.0 + a**M * (1 + a)


def test_one_variable_ball_is_the_disk_for_every_p():
    # the unit ball of l_p^1 is the closed disk for every p: one algorithm
    # (the torus ascent; the exact modulus sum for the majorant) answers for
    # every exponent, so the estimates agree bitwise
    P = HomPoly(1, 3, {(3,): 2 - 1j})
    F = _series(70, 1, 4)
    A, c = F.tables()
    for est in (lambda p: sup_norm(P, p, CFG), lambda p: series_sup(F, p, CFG),
                lambda p: sup_norms(A, c[None, :], p, CFG)[0]):
        base = est(math.inf)
        assert all(_same_estimate(est(p), base) for p in (1.0, 4 / 3, 2.0))
    for Q in (P, F.parts[-1], HomPoly(1, 0, {(0,): -3.0})):
        want = math.fsum(abs(x) for x in Q.coeffs.values())
        assert all(majorant_sup(Q, q, CFG).value == want for q in (1.0, 2.0, math.inf))


def split_factorize(z, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise factorization z = y * w with |y_i| = |z_i|^(p/(p+2)) and
    |w_i| = |z_i|^(2/(p+2)); phases are carried wholly by y.  For p = inf the
    exponents degenerate to 1 and 0 (w is all ones).  With 1/q = 1/2 + 1/p,
    a z on the l_q sphere is y on the l_2 sphere times w on the l_p sphere:
    the step behind the split-factorization chi upper bound for p >= 2."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    z = np.asarray(z, dtype=np.complex128)
    mod = np.abs(z)
    phase = np.where(mod > 0, z / np.where(mod > 0, mod, 1.0), 1.0)
    if p == math.inf:
        return z.copy(), np.ones(len(z))
    return phase * mod ** (p / (p + 2.0)), mod ** (2.0 / (p + 2.0))


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
    # the l_q sphere splits into the l_2 and l_p spheres, 1/q = 1/2 + 1/p
    p = 4.0
    q = 1 / (0.5 + 1 / p)
    y, w = split_factorize(z / lp_norm(z, q), p)
    assert lp_norm(y, 2.0) == pytest.approx(1.0) and lp_norm(w, p) == pytest.approx(1.0)


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
# The two q = 4/3 values moved up with the quasi-Newton ascent on the
# sphere: the projected gradient ascent stayed at 1.7088754532 (majorant)
# and 2.6545337351 (bohr_sum), the first even at OptConfig(64, 5000),
# while 4M dense samples of the nonnegative l_{4/3} sphere reach
# 1.71556802.
PINNED = {
    'sup_norm-m2-n3-p2': 1.459534786521308,
    'sup_norm-m3-n2-pinf': 5.733080394881655,
    'sup_norm-m2-n4-p1': 3.32900085286887,
    'majorant_sup-m2-n3-q2': 2.8944016228739033,
    'majorant_sup-m3-n3-q4_3': 1.7155697811514456,
    'majorant_sup-m2-n2-qinf': 5.996705956868179,
    'bohr_sum-n2-M3-q2': 2.7392662586391396,
    'bohr_sum-n3-M2-q4_3': 2.6602494118589655,
    'bohr_sum-n2-M2-qinf': 3.9276597022065394,
    'bohr_sum-n1-M4': 1.1426700707539,
    'series_sup-n2-M3-p2': 4.567682937975816,
    'series_sup-n3-M2-pinf': 9.337026356911082,
    'series_sup-n1-M4-p2': 6.7282827369592715,
}


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_estimates_pinned(case):
    assert PINNED_CASES[case]().value == pytest.approx(PINNED[case], rel=1e-9)
