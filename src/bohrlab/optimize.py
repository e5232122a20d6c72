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

from .polynomial import HomPoly, PolyBatch, TruncatedSeries, eval_batch, grad_batch


STEP0 = 0.5  # first step length of a projected ascent (a quasi-Newton step starts at 1)
TOL = 1e-13  # gain (relative; on logarithms a difference) below which a step counts as stalled
STEP_MAX = 1e3  # largest step length: an accepted step grows t by 1.25 up to it
BACKTRACKS = 40  # step halvings tried per iteration
LADDER = 8  # most halvings tried in one kernel call after a failed first step
HALVINGS = 0.5 ** np.arange(LADDER)  # exact powers of two: t * HALVINGS[j] is t halved j times
# tries in one turn after k tries of an iteration: 1 (the step t), then
# 1, 1, 2, 4, 8, 8, 8, 7 halvings
RUNGS = np.array([min(LADDER, max(k - 1, 1), BACKTRACKS - k) for k in range(BACKTRACKS)])
BATCH_ENTRIES = 2**20  # largest array of one ascent or scoring block (16 MB complex)
FLOOR = np.finfo(float).tiny  # |F| below this counts as 0 on the torus: ln |F|^2 stays finite
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


def _proj_sphere(Z: np.ndarray, p: float, flat: np.ndarray) -> np.ndarray:
    """Radial projection of each row onto the l_p unit sphere, p < inf
    (moduli), keeping phases; a zero row becomes flat."""
    nrm = lp_norm(Z, p)
    dead = nrm == 0
    if dead.any():
        Z = Z.copy()
        Z[dead] = flat
        nrm = np.where(dead, 1.0, nrm)
    return Z / nrm[:, None]


def _sufficient(fc, f, G, cand, Z) -> np.ndarray:
    """Armijo test of each candidate: sufficient increase along the
    displacement cand - Z, not along the step direction.  On the l_p sphere
    (p < inf) G keeps a radial part, which dominates near a maximum and
    which the projection throws away, so a test along t * G would ask for
    gains the step cannot make and stall early.  In torus angles nothing is
    projected, and the displacement is the step itself."""
    disp = ((np.conj(G) * (cand - Z)).sum(axis=1)).real
    return fc >= f + 1e-4 * np.maximum(disp, 0.0)


def _bfgs(H: np.ndarray | None, s: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """BFGS update of inverse-Hessian approximations H (S, n, n) of a
    function to minimize, by steps s and gradient changes y (S, n):
    H + s w^T - r u s^T with u = H y, r = 1 / s.y and w = (r + r^2 y.u) s - r u.
    A row whose curvature s.y / s.s is not above 1e-10 (a zero step too)
    keeps its H; None (no matrices) stays None.  Written with elementwise
    products and sums, so a row rounds the same in any batch."""
    if H is None:
        return H
    sy = (s * y).sum(axis=1)
    up = sy > 1e-10 * (s * s).sum(axis=1)
    if not up.any():
        return H
    r = np.where(up, 1.0, 0.0) / np.where(up, sy, 1.0)
    u = (H * y[:, None, :]).sum(axis=2)
    w = (r + r * r * (y * u).sum(axis=1))[:, None] * s - r[:, None] * u
    return H + s[:, :, None] * w[:, None, :] - (r[:, None] * u)[:, :, None] * s[:, None, :]


def _times(H: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """H g row by row (g itself when H is None)."""
    return g if H is None else (H * g[:, None, :]).sum(axis=2)


def _ascend(fg: Callable, project: Callable | None, Z0: np.ndarray,
            cfg: OptConfig, own=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched multi-start ascent with Armijo backtracking.  fg takes points
    and their owners (own[i] is the polynomial of Z0[i]; None: one) and
    returns their values and gradients, so each point is evaluated once: an
    accepted point brings its gradient with it.

    With a projection (onto an l_p sphere) a start steps along its gradient
    g and projects back, and a gain counts relative to the value.  Without
    one (project None: the variables range over R^n, as torus angles do)
    the values are logarithms, a start steps along H g, H its BFGS
    approximation of the inverse Hessian of -f, and a gain counts as a
    difference.  The R n x n matrices H are kept only when they hold at most
    BATCH_ENTRIES entries; past that H stays the identity (steepest ascent).

    An iteration tries the start's step t, then halves it up to
    BACKTRACKS - 1 times, and accepts the first step that passes the Armijo
    test.  An accepted step grows by 1.25 up to STEP_MAX (projected) or
    resets to 1 (quasi-Newton).  A start ends after 4 stalled steps (gain
    below TOL), after a failed iteration with t < 1e-14, when its
    quasi-Newton step promises a gain g.Hg below TOL (near a maximum its
    observed gains are rounding noise), or after cfg.iters iterations.

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
    qn = project is None
    Z_out = Z0.copy() if qn else project(Z0)
    f_out, G = fg(Z_out, own)
    R, n = Z_out.shape
    done = np.zeros(R, dtype=bool)
    live = np.arange(R)
    Z, f, o = Z_out, f_out, own  # live rows are written back at their end
    t = np.full(R, 1.0 if qn else STEP0)
    stalled = np.zeros(R, dtype=np.int64)
    tries = np.zeros(R, dtype=np.int64)  # tries made in the current iteration
    iters = np.zeros(R, dtype=np.int64)
    # step direction D = H G; BFGS matrices only for quasi-Newton steps and
    # only while they fit in BATCH_ENTRIES, else H = None, the identity
    H = np.tile(np.eye(n), (R, 1, 1)) if qn and R * n * n <= BATCH_ENTRIES else None
    D = G
    turn, searching = 0, False  # searching: some start is past its first try
    while True:
        conv = stalled >= 4
        if qn:  # its step promises a gain below TOL: converged
            conv |= (G * D).sum(axis=1) < TOL
        # iters <= turn: the budget ends no start before turn cfg.iters
        end = conv | (iters >= cfg.iters) if turn >= cfg.iters else conv
        if end.any():
            gone, keep = live[end], ~end
            Z_out[gone], f_out[gone], done[gone] = Z[end], f[end], conv[end]
            live, Z, f, G, D, t = live[keep], Z[keep], f[keep], G[keep], D[keep], t[keep]
            stalled, tries, iters = stalled[keep], tries[keep], iters[keep]
            H = None if H is None else H[keep]
            o = None if own is None else own[live]
            if not live.size:
                return f_out, Z_out, done
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
            Zr, Gr, fr, Dr = Z[rows], G[rows], f[rows], D[rows]
            orows = o if o is None else o[rows]
        else:  # one try per start: its step t
            L, steps, Zr, Gr, fr, Dr, orows = None, t, Z, G, f, D, o
        cand = Zr + steps[:, None] * Dr
        if not qn:
            cand = project(cand)
        fc, gc = fg(cand, orows)
        ok = _sufficient(fc, fr, Gr, cand, Zr)
        if L is None:  # a start's one try is its candidate
            hit, c = ok, slice(None)
        else:  # its first passing try, else its rung's last
            pos = np.minimum.reduceat(np.where(ok, np.arange(ok.size), ok.size), first)
            hit = pos < ends
            c = np.where(hit, pos, ends - 1)
        fz, gz, cz, sz = fc[c], gc[c], cand[c], steps[c]
        every = hit.all()
        fz = fz if every else np.where(hit, fz, f)  # no gain where no step is accepted
        gain = fz - f if qn else (fz - f) / np.maximum(np.abs(f), 1e-300)
        stall = np.where(gain < TOL, stalled + 1, 0)
        grown = np.ones(S) if qn else np.minimum(sz * 1.25, STEP_MAX)  # step after a move
        if every:  # every start accepts: its candidate becomes its point
            H = _bfgs(H, cz - Z, G - gz)
            stalled, Z, f, G, D, t = stall, cz, fz, gz, _times(H, gz), grown
            iters += 1
            if searching:
                tries[:], searching = 0, False
        else:  # a start that accepts moves; one that does not halves its step
            h = hit[:, None]
            stalled = np.where(hit, stall, stalled)
            H = _bfgs(H, np.where(h, cz - Z, 0.0), G - gz)  # a zero step keeps H
            D = np.where(h, _times(H, gz), D)
            Z, f, G, t = np.where(h, cz, Z), fz, np.where(h, gz, G), np.where(hit, grown, sz * 0.5)
            tries = np.where(hit, 0, tries + (1 if L is None else L))
            failed = tries >= BACKTRACKS
            stalled[failed & (t < 1e-14)] = 4
            tries[failed] = 0
            iters += hit | failed
            searching = bool(tries.any())


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
    """Starts for each row c of C (coefficients over the rows of A): the
    coordinate vectors (rows of one n x n identity) and the flat vector, at
    p = inf only the flat vector (the torus point every coordinate vector
    projects to); the single-monomial maximizer of the largest |c|
    (lexicographically first alpha on ties); and, when every nonzero entry
    of c has degree 1, the Hoelder point."""
    n = A.shape[1]
    flat = _flat_point(n, p)
    common = [flat] if p == math.inf else [*np.eye(n, dtype=np.complex128), flat]
    lex = np.lexsort(A.T[::-1])
    tops = A[lex[_moduli(C[:, lex]).argmax(axis=1)]].astype(float)
    out = []
    for c, x in zip(C, tops):
        starts = list(common)
        if x.sum() > 0 and p != math.inf:
            # exact maximizer of a single monomial on the l_p sphere
            starts.append(((x / x.sum()) ** (1.0 / p)).astype(np.complex128))
        nz = c != 0
        if (A[nz].sum(axis=1) == 1).all():
            a = np.zeros(n, dtype=np.complex128)
            a[A[nz].argmax(axis=1)] = c[nz]
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


def _estimate(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig,
              nonneg: bool) -> list[NormEstimate]:
    """Multi-start ascent on the unit sphere of l_p^n for each row c of C
    (coefficients over the rows of A) from the _structured_starts of its
    own entries plus max(budget - their number, 1) random ones, drawn from
    cfg.seed as a one-row call draws them.  The budget is cfg.restarts,
    and at least TORUS_STARTS on the torus.
    All rows run in one _ascend call, split only where the points' power
    tables would pass BATCH_ENTRIES entries (no start's path depends on
    another).
    nonneg=False maximizes |F|^2 over the complex sphere; nonneg=True
    maximizes F (coefficients >= 0) over the nonnegative sphere.  Both are
    projected gradient ascents for p < inf; the direction keeps its radial
    part (removing the component normal to the l_2 sphere made those
    ascents longer).  A row's value is |F| at its witness, scaled into the
    closed unit ball.

    On the torus (p = inf, nonneg=False) nothing is projected: the ascent
    runs in the angles theta of z = e^(i theta) on ln |F|^2, whose gradient
    -2 Im(z_j dF/dz_j / F) comes from the same grad_batch call, with
    quasi-Newton steps.  ln |F|^2 and its gradient do not change when F is
    scaled, so neither does the path.  |F| below FLOOR counts as FLOOR with
    a zero gradient, so a start at a zero of F stays finite, promises no
    gain and ends.  A quasi-Newton start climbs the basin it starts in, so
    a row finds its top basin only if some start lies in it: at 8 starts,
    rows of small random series missed it by up to 23%.  A start costs
    points, not kernel calls (an ascent lasts as long as its slowest
    start), hence the TORUS_STARTS floor."""
    K, n = len(C), A.shape[1]
    torus = p == math.inf and not nonneg
    budget = max(cfg.restarts, TORUS_STARTS) if torus else cfg.restarts
    starts = _structured_starts(A, C, p)
    draws: dict[int, np.ndarray] = {}

    def fresh(k):
        count = max(budget - len(starts[k]), 1)
        if count not in draws:
            rng = np.random.default_rng(cfg.seed)
            x = rng.standard_normal((count, n))
            draws[count] = np.abs(x) if nonneg else x + 1j * rng.standard_normal((count, n))
        return draws[count]

    R = np.array([len(starts[k]) + len(fresh(k)) for k in range(K)])
    F = PolyBatch(A, C)
    if nonneg:
        flat = _flat_point(n, p).real

        def fg(X, own):
            vals, grads = grad_batch(F, X.astype(np.complex128), own)
            return vals.real, grads.real

        def project(X):
            return _proj_sphere(np.clip(X.real, 0.0, None), p, flat)
    elif torus:
        project = None

        def fg(theta, own):  # ln |F|^2 at z = e^(i theta) and its theta-gradient
            Z = np.exp(1j * theta)
            vals, grads = grad_batch(F, Z, own)
            mod = np.abs(vals)
            dlog = np.divide(Z * grads, vals[:, None], out=np.zeros_like(grads),
                             where=(mod >= FLOOR)[:, None])  # z_j dF/dz_j / F
            return 2.0 * np.log(np.maximum(mod, FLOOR)), -2.0 * dlog.imag
    else:
        flat = _flat_point(n, p)

        def fg(Z, own):
            vals, grads = grad_batch(F, Z, own)
            return np.abs(vals) ** 2, 2.0 * vals[:, None] * np.conj(grads)

        def project(Z):
            return _proj_sphere(Z, p, flat)

    # most starts in one ascent: a point's power table holds every entry of
    # the support's down-closure, its gradient n
    cap = BATCH_ENTRIES // max(n, F.table.size)
    out: list[NormEstimate] = []
    k0 = 0
    while k0 < K:
        k1 = k0 + max(1, int(np.searchsorted(np.cumsum(R[k0:]), cap, side="right")))
        ks = np.arange(k0, k1)
        Z0 = np.vstack([z for k in ks for z in (*starts[k], *fresh(k))])
        own = None if K == 1 else np.repeat(ks, R[ks])
        f, Z, done = _ascend(fg, project, np.angle(Z0) if torus else Z0, cfg, own)
        Z = np.exp(1j * Z) if torus else Z
        ends = np.cumsum(R[ks]).tolist()
        spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
        best = [s.start + pick_best(f[s]) for s in spans]
        W = np.array([Z[b] / max(lp_norm(Z[b], p), 1.0) for b in best])
        vals = eval_batch(F, W.astype(np.complex128), None if K == 1 else ks)
        out += [NormEstimate(float(abs(v)), w, int(r), bool(done[s].all()))
                for v, w, r, s in zip(vals, W, R[ks], spans)]
        k0 = k1
    return out


def _estimates(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig | None,
               nonneg: bool) -> list[NormEstimate]:
    """The one front end of every estimate: one NormEstimate per row c of C
    (coefficients over the rows of A) on the unit ball of l_p^n.  It checks
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
        found = iter(_estimate(A, L, p, cfg, nonneg) if len(L) else ())
    const = _moduli(C[:, deg == 0]).sum(axis=1)
    dtype = float if nonneg else np.complex128
    return [next(found) if ok else NormEstimate(float(a), np.zeros(n, dtype), cfg.restarts, True)
            for ok, a in zip(live, const)]


def sup_norms(A: np.ndarray, C: np.ndarray, p: float,
              cfg: OptConfig | None = None) -> list[NormEstimate]:
    """sup_norm of each row of C, coefficients over the rows of A, in one
    ascent; each row gets the starts of a one-row call on its own entries."""
    return _estimates(A, C, p, cfg, False)


def sup_norm(P: HomPoly, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |P| over the l_p unit ball by multi-start projected
    gradient ascent on |P|^2 (for p = inf by quasi-Newton ascent on the
    torus)."""
    A, c = P.tables()
    return sup_norms(A, c[None, :], p, cfg)[0]


def majorant_sups(A: np.ndarray, C: np.ndarray, q: float,
                  cfg: OptConfig | None = None) -> list[NormEstimate]:
    """majorant_sup of each row of C, coefficients over the rows of A, in one
    ascent; each row gets the starts of a one-row call on its own entries."""
    return _estimates(A, C, q, cfg, True)


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
