"""Numerical maximization of polynomial moduli and majorant sums over l_p
balls, plus the entrywise split factorization of a point.

Every estimate produced here is a certified LOWER bound on the true norm:
the reported value is exactly the objective evaluated at the reported
witness.  Upper bounds come from the analytic formulas in ``bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .polynomial import (HomPoly, MonomialTable, PolyBatch, TruncatedSeries, eval_batch,
                         grad_batch)


TOL = 1e-13  # gain of the logarithm below which a step counts as stalled
STEP_CAP = 2.0  # longest try on a sphere: no step moves a point farther (Euclidean length)
BACKTRACKS = 40  # step halvings tried per iteration
LADDER = 8  # most halvings tried in one kernel call after a failed first step
HALVINGS = 0.5 ** np.arange(LADDER)  # exact powers of two: t * HALVINGS[j] is t halved j times
# tries in one turn after k tries of an iteration: 1 (the step t), then
# 1, 1, 2, 4, 8, 8, 8, 7 halvings
RUNGS = np.array([min(LADDER, max(k - 1, 1), BACKTRACKS - k) for k in range(BACKTRACKS)])
BATCH_ENTRIES = 2**20  # largest array of one ascent or scoring block (16 MB complex)
FLOOR = np.finfo(float).tiny  # |F| below this counts as FLOOR: ln |F| stays finite
ZERO = 1e-150  # dF_i / F counts as 0 where |F| <= ZERO |dF_i| (see _log_grad)
TORUS_STARTS = 32  # fewest starts of a complex row at p = inf (see _estimate)


@dataclass
class OptConfig:
    """Multi-start ascent configuration: starts per row (at least
    TORUS_STARTS for a complex row at p = inf or in one variable),
    iterations per start, seed."""

    restarts: int = 64
    iters: int = 300
    seed: int = 0


@dataclass
class NormEstimate:
    """Best witness evaluation found by the optimizer (a valid lower bound)."""

    value: float
    witness: np.ndarray
    restarts: int
    converged: bool


def lp_norm(v: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of the moduli along the last axis (p may be inf)."""
    r = np.abs(v)
    if p == math.inf:
        return r.max(axis=-1)
    if p == 1:
        return r.sum(axis=-1)
    return (r**p).sum(axis=-1) ** (1.0 / p)


def to_sphere(Z: np.ndarray, p: float) -> np.ndarray:
    """Each nonzero row of Z scaled onto the l_p unit sphere, p < inf.  The
    row is first divided by its largest modulus, so its p-th powers stay
    at most 1 and no p overflows them."""
    Z = Z / np.abs(Z).max(axis=1, keepdims=True)
    return Z / lp_norm(Z, p)[:, None]


def _proj_sphere(X: np.ndarray, p: float, flat: np.ndarray) -> np.ndarray:
    """Radial projection of each row onto the l_p unit sphere, p < inf
    (moduli; a complex row keeps its phases); a zero row becomes flat."""
    nrm = lp_norm(X, p)
    dead = nrm == 0
    if np.count_nonzero(dead):
        X = X.copy()
        X[dead] = flat
        nrm = np.where(dead, 1.0, nrm)
    return X / nrm[:, None]


def _log_grad(vals: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln |F| and dF / F at each point, from F's values and the rows of its
    derivatives dF.  |F| below FLOOR counts as FLOOR.  An entry dF_i / F
    whose |dF_i| is at least |F| / ZERO counts as 0, so a point at a zero
    of F (|F| = 0) has a zero gradient: a start there promises no gain and
    ends.  No quotient leaves the float range (each is below 1 / ZERO), and
    both sides of the rule scale with F, so it does not see the
    coefficient scale."""
    mod = np.abs(vals)[:, None]
    return np.log(np.maximum(mod[:, 0], FLOOR)), grads / np.where(mod > ZERO * np.abs(grads),
                                                                     vals[:, None], np.inf)


def _bfgs(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of inverse-Hessian approximations H (S, d, d) of a
    function to minimize, by steps s and gradient changes y (S, d):
    H + s w^T - r u s^T with u = H y, r = 1 / s.y and w = (r + r^2 y.u) s - r u,
    the rank-2 term as one batched matrix product.  A row whose curvature
    s.y / s.s is not above 1e-10 (a zero step too) has r = 0 and keeps its
    H.  Row by row (matvec, vecdot, matmul), so a row rounds the same in
    any batch."""
    sy = np.vecdot(s, y)
    up = sy > 1e-10 * np.vecdot(s, s)
    r = up / np.where(up, sy, 1.0)
    u = np.matvec(H, y)
    S, d = s.shape
    left, right = np.empty((S, d, 2)), np.empty((S, 2, d))  # [s, -r u] and [w; s]
    left[..., 0], right[:, 1] = s, s
    np.multiply(-r[:, None], u, out=left[..., 1])
    np.multiply((r + r * r * np.vecdot(y, u))[:, None], s, out=right[:, 0])
    right[:, 0] += left[..., 1]
    return H + np.matmul(left, right)


def _direction(H: np.ndarray | None, G: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The quasi-Newton step H G of each row (G itself when H is None), cut
    to length cap, and what it promises: the first-order gain G . D."""
    D = G if H is None else np.matvec(H, G)
    dd = np.vecdot(D, D)
    long = dd > cap * cap
    if np.count_nonzero(long):
        D = D * np.where(long, cap / np.sqrt(np.maximum(dd, cap * cap)), 1.0)[:, None]
    return D, np.vecdot(G, D)


def _ascend(fg: Callable, retract: Callable | None, X0: np.ndarray,
            cfg: OptConfig, own=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched multi-start quasi-Newton ascent with Armijo backtracking, in
    real coordinates X (R, d).  fg takes points and their owners (own[i]
    is the polynomial of X0[i]; None: one) and returns their values, which
    are logarithms, and gradients, so each point is evaluated once: an
    accepted point brings its gradient with it.  retract (None: the
    identity) maps each try back onto the set the points range over: it
    runs on the starts and after every try, before fg.

    A start steps along D = H g, H its BFGS approximation of the inverse
    Hessian of -f.  With a retraction D is cut to length STEP_CAP, so no
    try moves a point farther than STEP_CAP from the set; without one (the
    points are torus angles) it is not cut.  The d x d matrices H are kept
    only where they can pay and fit: when d <= 2 cfg.iters (a start makes
    at most cfg.iters updates) and the R matrices hold at most
    BATCH_ENTRIES entries; else H stays the identity (steepest ascent).
    The Armijo test asks for a gain of 1e-4 g.(x_try - x) along the
    displacement that the retraction left.

    An iteration tries its opening step t, then halves it up to
    BACKTRACKS - 1 times, and accepts the first step that passes the Armijo
    test.  A start with a BFGS matrix opens every iteration at t = 1, the
    quasi-Newton step's natural length; a start without one (steepest
    ascent, whose step has no natural length) opens at min(1, 2 t_acc),
    t_acc its last accepted step (Nocedal & Wright, Numerical Optimization,
    section 3.5), and its first iteration at t = 1.  So t never exceeds 1,
    and with a retraction no try moves farther than STEP_CAP.  A start ends
    after 4 stalled steps (gain below TOL), after a failed iteration with
    t < 1e-14, when its step promises a gain g.D below TOL (near a maximum
    its observed gains are rounding noise), or after cfg.iters iterations.
    Values and gains are logarithms, so a polynomial scaled by c > 0 takes
    the same path.

    Each live start keeps its own step state, and each turn puts every
    live start's next tries into one shared fg call: its step t, or, after
    k failed tries in an iteration, a rung of the next RUNGS[k] halvings.
    So a start accepts the steps a one-try-at-a-time search accepts, and
    evaluates fewer than twice as many.  No turn holds more points than the
    first call (R): rungs that would not fit are cut short, later starts
    first, which moves no accepted step.  Starts that end are written back
    and leave the working arrays.

    Returns (final values, final points, converged flag of each point: it
    ended by a stall or promise rule, not by the iteration budget)."""
    X_out = X0.copy() if retract is None else retract(X0)
    f_out, G = fg(X_out, own)
    R, d = X_out.shape
    done = np.zeros(R, dtype=bool)
    live = np.arange(R)
    X, f, o = X_out, f_out, own  # live rows are written back at their end
    H = np.tile(np.eye(d), (R, 1, 1)) if d <= 2 * cfg.iters and R * d * d <= BATCH_ENTRIES else None
    cap = STEP_CAP if retract is not None else math.inf
    D, gain = _direction(H, G, cap)  # gain: what each start's step promises
    t = np.ones(R)
    stalled = np.zeros(R, dtype=np.int64)
    tries = np.zeros(R, dtype=np.int64)  # tries made in the current iteration
    iters = np.zeros(R, dtype=np.int64)
    turn, searching = 0, False  # searching: some start is past its first try
    while True:
        conv = (stalled >= 4) | (gain < TOL)
        # iters <= turn: the budget ends no start before turn cfg.iters
        end = conv | (iters >= cfg.iters) if turn >= cfg.iters else conv
        if np.count_nonzero(end):
            gone, keep = live[end], ~end
            X_out[gone], f_out[gone], done[gone] = X[end], f[end], conv[end]
            live, X, f, G, D, gain = live[keep], X[keep], f[keep], G[keep], D[keep], gain[keep]
            t = t[keep]
            stalled, tries, iters = stalled[keep], tries[keep], iters[keep]
            H = None if H is None else H[keep]
            o = None if own is None else own[live]
            if not live.size:
                return f_out, X_out, done
        turn += 1
        S = live.size
        L = RUNGS[tries] if searching else None
        if L is not None and L.max() > 1:
            ends = np.cumsum(L)
            if ends[-1] > R:  # fit the rungs into R points, cutting the later ones short
                L = np.maximum(np.minimum(L, R - S + 1 - (ends - L - np.arange(S))), 1)
                ends = np.cumsum(L)
            first = ends - L
            rows = np.repeat(np.arange(S), L)
            steps = t[rows] * HALVINGS[np.arange(ends[-1]) - first[rows]]
            Xr, Gr, fr = X[rows], G[rows], f[rows]
            cand = Xr + steps[:, None] * D[rows]
            orows = o if o is None else o[rows]
        else:  # one try per start: its step t
            L, steps, Xr, Gr, fr, orows = None, t, X, G, f, o
            cand = X + t[:, None] * D
        if retract is not None:
            cand = retract(cand)
        fc, gc = fg(cand, orows)
        sc = cand - Xr  # each try's displacement
        ok = fc >= fr + 1e-4 * np.maximum(np.vecdot(Gr, sc), 0.0)
        if L is None:  # a start's one try is its candidate
            hit, c = ok, slice(None)
        else:  # its first passing try, else its rung's last
            pos = np.minimum.reduceat(np.where(ok, np.arange(ok.size), ok.size), first)
            hit = pos < ends
            c = np.where(hit, pos, ends - 1)
        fz, gz, xz, sz = fc[c], gc[c], cand[c], sc[c]
        # the step an accepting start opens its next iteration at
        reopen = np.ones(S) if H is not None else np.minimum(2.0 * steps[c], 1.0)
        if np.count_nonzero(hit) == S:  # every start accepts: its candidate becomes its point
            stalled = np.where(fz - f < TOL, stalled + 1, 0)
            if H is not None:
                H = _bfgs(H, sz, G - gz)
            D, gain = _direction(H, gz, cap)
            X, f, G = xz, fz, gz
            iters += 1
            t = reopen
            if searching:
                tries[:], searching = 0, False
        else:  # a start that accepts moves; one that does not halves its step
            h = hit[:, None]
            fz = np.where(hit, fz, f)  # no gain where no step is accepted
            stalled = np.where(hit, np.where(fz - f < TOL, stalled + 1, 0), stalled)
            if H is not None:
                H = _bfgs(H, np.where(h, sz, 0.0), G - gz)  # a zero step keeps H
            Dz, gz_gain = _direction(H, gz, cap)
            D, gain = np.where(h, Dz, D), np.where(hit, gz_gain, gain)
            X, f, G = np.where(h, xz, X), fz, np.where(h, gz, G)
            t = np.where(hit, reopen, steps[c] * 0.5)
            tries = np.where(hit, 0, tries + (1 if L is None else L))
            failed = tries >= BACKTRACKS
            stalled[failed & (t < 1e-14)] = 4
            tries[failed] = 0
            iters += hit | failed
            searching = bool(np.count_nonzero(tries))


def pick_best(values: np.ndarray) -> int:
    """Index of the maximum value; among values within 1e-12 (relative) of it
    the lowest index, so that last-bit differences in the values do not
    decide between near-equal maxima."""
    vmax = values.max()
    return int(np.flatnonzero(values >= vmax - 1e-12 * max(1.0, abs(vmax)))[0])


def _moduli(C: np.ndarray) -> np.ndarray:
    """|c| entrywise, rounded as abs(complex) rounds it (np.abs may not)."""
    return np.hypot(C.real, C.imag)


def _flat_point(n: int, p: float) -> np.ndarray:
    if p == math.inf:
        return np.ones(n, dtype=np.complex128)
    return np.full(n, n ** (-1.0 / p), dtype=np.complex128)


def _structured_starts(A: np.ndarray, C: np.ndarray, p: float) -> list[list[np.ndarray]]:
    """The starts of each row c of C (coefficients over the rows of A) that
    follow its n coordinate vectors (p < inf; _estimate builds those in
    blocks, so no n x n array is formed): the flat vector, which at p = inf
    is the torus point every coordinate vector projects to; the
    single-monomial maximizer of the largest |c| (lexicographically first
    alpha on ties); and, when every nonzero entry of c has degree 1, the
    Hoelder point."""
    n = A.shape[1]
    flat = _flat_point(n, p)
    deg, var = A.sum(axis=1), A.argmax(axis=1)  # var: the variable of a degree-1 row
    out = []
    for c, mod in zip(C, _moduli(C)):
        ties = np.flatnonzero(mod == mod.max())
        for j in range(n):  # the lexicographically first alpha of the ties
            if ties.size == 1:
                break
            ties = ties[A[ties, j] == A[ties, j].min()]
        x = A[ties[0]].astype(float)
        starts = [flat]
        if x.sum() > 0 and p != math.inf:
            # exact maximizer of a single monomial on the l_p sphere
            starts.append(((x / x.sum()) ** (1.0 / p)).astype(np.complex128))
        nz = c != 0
        if (deg[nz] == 1).all():
            a = np.zeros(n, dtype=np.complex128)
            a[var[nz]] = c[nz]
            mod = np.abs(a)
            phase = np.where(mod > 0, np.conj(a) / np.where(mod > 0, mod, 1.0), 1.0)
            if p == math.inf:
                x = np.ones(n)
            elif p == 1:  # best coordinate
                x = (np.arange(n) == mod.argmax()).astype(float)
            else:  # the conjugate exponent's extremal point
                x = mod ** (p / (p - 1.0) / p)
                x = x / lp_norm(x, p)
            if p != math.inf or (phase != 1).any():  # else it is the flat start
                starts.append(phase * x)
        out.append(starts)
    return out


def _estimate(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig, nonneg: bool,
              table: MonomialTable | None) -> list[NormEstimate]:
    """Multi-start ascent on the unit sphere of l_p^n for each row c of C
    (coefficients over the rows of A, compiled in table, or here when it is
    None): from the n coordinate vectors
    (p < inf), then the _structured_starts of its own entries, then
    max(budget - their number, 1) random ones, drawn from cfg.seed as a
    one-row call draws them.  The budget is cfg.restarts, and at least
    TORUS_STARTS on the torus.  Every row runs the quasi-Newton _ascend on
    a logarithm, which does not change when F is scaled, so neither does
    the path.  A row's value is |F| at its witness, scaled into the closed
    unit ball.
    - Complex rows, 1 < p < inf: ln |F|^2 in the real coordinates of z (a
      float view of the complex points), with gradient g = 2 conj(dF/F)
      less its part along the sphere's normal, g - Re<z, g> |z|^(p-2) z,
      so that Re<z, g> = 0: the gradient of ln |F(retract(z))|^2 at a
      point of the sphere.  Each try is projected radially back onto the
      sphere, and a try moves at most STEP_CAP (the sign search's float
      range rests on that).
    - Complex rows, p = 1: the l_1 sphere has kinks where a coordinate is
      0, which is where most of its maxima lie (vertices and edges), and a
      step across such a kink ends in a failed halving ladder.  So the
      ascent runs on the smooth l_2 sphere in w, with z = w |w| (moduli
      squared, phases kept), which maps it onto the l_1 sphere: the same
      objective, its gradient by the chain rule
      dz = |w| dw + w Re(conj(w) dw) / |w|, each try projected back onto
      the l_2 sphere.  A start with w_i = 0 keeps it (the map's
      derivative vanishes there), so coordinate starts stay on their
      faces; random starts explore.
    - Majorant rows (nonneg=True, coefficients >= 0): ln F on the
      nonnegative sphere, like the 1 < p < inf rows, each try clipped at
      0 first.
    - Torus rows (p = inf): ln |F|^2 in the angles theta of z = e^(i theta),
      with gradient -2 Im(z_j dF/dz_j / F); nothing is projected, and no
      step is cut: angles leave no range.
    |F| below FLOOR counts as FLOOR, and a point at a zero of F (see
    _log_grad) has a zero gradient, so a start there stays finite,
    promises no gain and ends.  A quasi-Newton start climbs the basin it
    starts in, so a row finds its top basin only if some start lies in
    it: on the torus at 8 starts, rows of small random series missed it by
    up to 23%.  A start costs points, not kernel calls (an ascent lasts as
    long as its slowest start), hence the TORUS_STARTS floor.

    The rows' starts run in one _ascend call, split into ascents of at most
    BATCH_ENTRIES // max(8 n, table size) starts (the points' power tables
    and the ascent's arrays of n entries per point), a row's own starts
    too when it has more; no start's path depends on another.  The
    coordinate starts are built per ascent, so no n x n array is formed.
    A row split into several ascents takes the first of their picks within
    pick_best's tolerance."""
    K, n = len(C), A.shape[1]
    torus = p == math.inf and not nonneg
    budget = max(cfg.restarts, TORUS_STARTS) if torus else cfg.restarts
    coords = 0 if p == math.inf else n  # coordinate starts come first
    draws: dict[int, np.ndarray] = {}

    def fresh(count):
        if count not in draws:
            rng = np.random.default_rng(cfg.seed)
            x = rng.standard_normal((count, n))
            x = np.abs(x) if nonneg else x + 1j * rng.standard_normal((count, n))
            draws[count] = x if torus else to_sphere(x, p)
        return draws[count]

    # each row's starts after its coordinate ones
    rest = [np.vstack([*s, *fresh(max(budget - coords - len(s), 1))])
            for s in _structured_starts(A, C, p)]
    R = [coords + len(r) for r in rest]

    def block(k, a, b):  # starts a..b-1 of row k
        Z = np.zeros((b - a, n), dtype=np.complex128)
        i = np.arange(a, min(b, coords))
        Z[i - a, i] = 1.0
        Z[max(coords - a, 0):] = rest[k][max(a - coords, 0):max(b - coords, 0)]
        return Z

    F = PolyBatch(A, C, table)
    if torus:
        retract = None

        def fg(theta, own):  # ln |F|^2 at z = e^(i theta) and its theta-gradient
            Z = np.exp(1j * theta)
            vals, grads = grad_batch(F, Z, own)
            lnf, q = _log_grad(vals, Z * grads)  # q: z_j dF/dz_j / F
            return 2.0 * lnf, -2.0 * q.imag

        def start(Z):
            return np.angle(Z)

        def point(x):
            return np.exp(1j * x)
    elif nonneg:
        flat = _flat_point(n, p).real

        def fg(X, own):  # ln F at x >= 0 and its gradient along the sphere
            vals, grads = grad_batch(F, X.astype(np.complex128), own)
            lnf, q = _log_grad(vals.real, grads.real)
            q -= np.vecdot(X, q)[:, None] * X ** (p - 1.0)
            return lnf, q

        def retract(X):
            return _proj_sphere(np.maximum(X, 0.0), p, flat)

        def start(Z):
            return np.ascontiguousarray(Z.real)

        def point(x):
            return x
    elif p == 1:  # on the l_2 sphere in w, z = w |w| (see the docstring)
        flat = _flat_point(n, 2.0)

        def fg(X, own):  # ln |F|^2 at z = w |w| (X the float view of w) and its gradient in w
            W = X.view(np.complex128)
            r = np.abs(W)
            vals, grads = grad_batch(F, W * r, own)
            lnf, q = _log_grad(vals, grads)
            g = 2.0 * np.conj(q)  # the gradient in z; dz = |w| dw + w Re(conj(w) dw) / |w|
            g = r * g + np.divide(g.real * W.real + g.imag * W.imag, r, out=np.zeros_like(r),
                                  where=r > 0) * W
            G = g.view(np.float64)
            G -= np.vecdot(X, G)[:, None] * X
            return 2.0 * lnf, G

        def retract(X):
            return _proj_sphere(X.view(np.complex128), 2.0, flat).view(np.float64)

        def start(Z):  # w = z / |z|^(1/2)
            r = np.abs(Z)
            return (Z * np.power(r, -0.5, out=np.zeros_like(r), where=r > 0)).view(np.float64)

        def point(x):
            w = x.view(np.complex128)
            return w * np.abs(w)
    else:
        flat = _flat_point(n, p)

        def normal(Z):  # |z|^(p-2) z, 0 at z = 0
            r = np.abs(Z)
            return np.power(r, p - 2.0, out=np.zeros_like(r), where=r > 0) * Z

        def fg(X, own):  # ln |F|^2 at z (X its float view) and its gradient along the sphere
            Z = X.view(np.complex128)
            vals, grads = grad_batch(F, Z, own)
            lnf, q = _log_grad(vals, grads)
            G = (2.0 * np.conj(q)).view(np.float64)
            G -= np.vecdot(X, G)[:, None] * normal(Z).view(np.float64)
            return 2.0 * lnf, G

        def retract(X):
            return _proj_sphere(X.view(np.complex128), p, flat).view(np.float64)

        def start(Z):
            return Z.view(np.float64)

        def point(x):
            return x.view(np.complex128)

    # most starts in one ascent: a point's power table holds every entry of
    # the support's down-closure, and the ascent keeps about 8 arrays of n
    # entries per point (points, gradients, steps, tries)
    cap = BATCH_ENTRIES // max(8 * n, F.table.size)
    segs = [(k, a, min(a + cap, R[k])) for k in range(K) for a in range(0, R[k], cap)]
    picks: list[list] = [[] for _ in range(K)]  # per row: (value, point, converged) per ascent
    i = 0
    while i < len(segs):
        j, size = i + 1, segs[i][2] - segs[i][1]
        while j < len(segs) and size + segs[j][2] - segs[j][1] <= cap:
            size, j = size + segs[j][2] - segs[j][1], j + 1
        chunk, i = segs[i:j], j
        Z0 = np.vstack([block(*s) for s in chunk])
        own = None if K == 1 else np.repeat([k for k, _, _ in chunk], [b - a for _, a, b in chunk])
        f, X, done = _ascend(fg, retract, start(Z0), cfg, own)
        pos = 0
        for k, a, b in chunk:
            span = slice(pos, pos + b - a)
            best = pos + pick_best(f[span])
            picks[k].append((f[best], point(X[best].copy()), bool(done[span].all())))
            pos = span.stop
    W, conv = [], []
    for row in picks:
        w = row[pick_best(np.array([v for v, _, _ in row]))][1]
        W.append(w / max(lp_norm(w, p), 1.0))
        conv.append(all(c for _, _, c in row))
    vals = eval_batch(F, np.array(W).astype(np.complex128), None if K == 1 else np.arange(K))
    return [NormEstimate(float(abs(v)), w, r, c) for v, w, r, c in zip(vals, W, R, conv)]


def _estimates(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig | None,
               nonneg: bool, table: MonomialTable | None = None) -> list[NormEstimate]:
    """The one front end of every estimate: one NormEstimate per row c of C
    (coefficients over the distinct rows of A, whose MonomialTable the
    ascent compiles unless table is given) on the unit ball of l_p^n.  It checks
    cfg (default OptConfig(); the budget must be positive), the exponent p
    and the coefficients.  In one variable the unit ball of l_p^1 is the
    closed disk for every p, so there p is taken as inf: one algorithm for
    one set.  nonneg=False estimates sup |F|; nonneg=True the majorant, the
    sum of |c_alpha| x^alpha over the nonnegative sphere, so it works on
    the moduli of C.  A row with no nonzero entry of positive degree is
    constant and gets the modulus of its constant entry, exactly, at the
    origin.  The majorant is monotone in every coordinate, so at p = inf it
    is exact: the modulus sum at the all-ones point.  Every other row runs
    in one _estimate call, from the _structured_starts of its own entries,
    whichever estimator asked."""
    cfg = cfg or OptConfig()
    if cfg.restarts < 1 or cfg.iters < 1:
        raise ValueError("optimizer budget must be positive")
    if not (1 <= p):
        raise ValueError(f"need p >= 1, got {p}")
    n, deg = A.shape[1], A.sum(axis=1)
    p = math.inf if n == 1 else p
    if not np.isfinite(C).all():
        raise ValueError("non-finite coefficients")
    if nonneg:
        C = _moduli(C)
    live = C[:, deg > 0].any(axis=1)
    L = C if live.all() else C[live]
    if nonneg and p == math.inf:
        found = iter([NormEstimate(math.fsum(c), np.ones(n), cfg.restarts, True) for c in L])
    else:
        found = iter(_estimate(A, L, p, cfg, nonneg, table) if len(L) else ())
    const = _moduli(C[:, deg == 0]).sum(axis=1)
    dtype = float if nonneg else np.complex128
    return [next(found) if ok else NormEstimate(float(a), np.zeros(n, dtype), cfg.restarts, True)
            for ok, a in zip(live, const)]


def sup_norms(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig | None = None,
              table: MonomialTable | None = None) -> list[NormEstimate]:
    """sup_norm of each row of C, coefficients over the distinct rows of A
    (compiled in table when given), in one ascent; each row gets the starts
    of a one-row call on its own entries."""
    return _estimates(A, C, p, cfg, False, table)


def sup_norm(P: HomPoly, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |P| over the l_p unit ball by multi-start
    quasi-Newton ascent on ln |P|^2: on the l_p sphere, on the l_2 sphere
    in w with z = w |w| at p = 1, and in torus angles at p = inf (see
    _estimate)."""
    A, c = P.tables()
    return sup_norms(A, c[None, :], p, cfg)[0]


def majorant_sups(A: np.ndarray, C: np.ndarray, q: float, cfg: OptConfig | None = None,
                  table: MonomialTable | None = None) -> list[NormEstimate]:
    """majorant_sup of each row of C, coefficients over the distinct rows of
    A (compiled in table when given), in one ascent; each row gets the
    starts of a one-row call on its own entries."""
    return _estimates(A, C, q, cfg, True, table)


def majorant_sup(P: HomPoly, q: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Maximize the coefficient-modulus sum over the nonnegative l_q sphere.

    The objective is monotone in every coordinate, so for q = inf the exact
    answer is the all-ones point."""
    A, c = P.tables()
    return majorant_sups(A, c[None, :], q, cfg)[0]


def bohr_sum(F: TruncatedSeries, r: float, q: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Maximize sum |c_alpha z^alpha| over the radius-r ball of l_q^n.  With
    z = r w this is the majorant of the r-scaled coefficients
    |c_alpha| r^|alpha| over the unit ball: one majorant_sups row, whose
    witness is scaled by r.  Exact at q = inf, and so in one variable for
    every q (the front end's one-variable rule)."""
    if not r >= 0:
        raise ValueError(f"need r >= 0, got {r}")
    A, c = F.tables()
    est = majorant_sups(A, (_moduli(c) * float(r) ** A.sum(axis=1))[None, :], q, cfg)[0]
    return replace(est, witness=r * est.witness)


def series_sup(F: TruncatedSeries, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |F| over the l_p unit ball (attained on the sphere by
    subharmonicity; on the torus for p = inf and in one variable): the
    sup_norms row of F's own table, with its starts."""
    A, c = F.tables()
    return sup_norms(A, c[None, :], p, cfg)[0]


def series_part_sups(F: TruncatedSeries, p: float,
                     cfg: OptConfig | None = None) -> list[NormEstimate]:
    """series_sup(F) and then sup_norm of each homogeneous part of F, in one
    ascent on the series' table: row 0 holds F's coefficients and row k the
    same vector with every entry outside degree k set to zero: the
    sup_norms rows of that matrix.  Each row keeps the starts and random
    draws of its one-row call, so row 0 is series_sup(F) and row k the
    sup_norm of part k, each up to the last-bit rounding of batched matrix
    products; an all-zero part gets the exact zero estimate."""
    A, c = F.tables()
    deg = A.sum(axis=1)
    return sup_norms(A, np.array([c] + [np.where(deg == P.m, c, 0) for P in F.parts]), p, cfg)


def split_factorize(z, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise factorization z = y * w with |y_i| = |z_i|^(p/(p+2)) and
    |w_i| = |z_i|^(2/(p+2)); phases are carried wholly by y.  For p = inf the
    exponents degenerate to 1 and 0 (w is all ones)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    z = np.asarray(z, dtype=np.complex128)
    mod = np.abs(z)
    phase = np.where(mod > 0, z / np.where(mod > 0, mod, 1.0), 1.0)
    if p == math.inf:
        return z.copy(), np.ones(len(z))
    y = phase * mod ** (p / (p + 2.0))
    w = mod ** (2.0 / (p + 2.0))
    return y, w
