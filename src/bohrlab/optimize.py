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


STEP0 = 0.5  # first ascent step length
TOL = 1e-13  # relative gain below which an accepted step counts as stalled
STEP_MAX = 1e3  # largest step length: an accepted step grows t by 1.25 up to it
BACKTRACKS = 40  # step halvings tried per iteration
LADDER = 8  # most halvings tried in one kernel call after a failed first step
HALVINGS = 0.5 ** np.arange(LADDER)  # exact powers of two: t * HALVINGS[j] is t halved j times
BATCH_ENTRIES = 2**20  # largest point array of one ascent (16 MB complex)


@dataclass
class OptConfig:
    """Multi-start projected gradient ascent configuration."""

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
    """Radial projection of each row onto the l_p unit sphere (moduli), keeping
    phases.  For p = inf the moduli are all forced to 1 (torus)."""
    if p == math.inf:
        r = np.abs(Z)
        return np.where(r > 0, Z / np.where(r > 0, r, 1.0), 1.0 + 0j)
    nrm = lp_norm(Z, p)
    dead = nrm == 0
    if dead.any():
        Z = Z.copy()
        Z[dead] = flat
        nrm = np.where(dead, 1.0, nrm)
    return Z / nrm[:, None]


def _sufficient(fc, f, G, cand, Z) -> np.ndarray:
    """Armijo test of each candidate: sufficient increase along the projected
    displacement cand - Z, not along t * G.  On the l_p sphere (p < inf) G
    keeps a radial part, which dominates near a maximum and which the
    projection throws away, so a test along t * G would ask for gains the
    step cannot make and stall early.  On the torus G is tangent already
    (see _estimate)."""
    disp = ((np.conj(G) * (cand - Z)).sum(axis=1)).real
    return fc >= f + 1e-4 * np.maximum(disp, 0.0)


def _ascend(fg: Callable, project: Callable, Z0: np.ndarray,
            cfg: OptConfig, own=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched projected gradient ascent with Armijo backtracking.  fg takes
    points and their owners (own[i] is the polynomial of Z0[i]; None: one)
    and returns their values and ascent directions, so each point is
    evaluated once: an accepted point brings its gradient with it.

    Each iteration tries step t, then halves it up to BACKTRACKS - 1 times
    and takes the first step that passes the Armijo test; an accepted step
    grows t by 1.25, and 4 stalled steps (or a failed iteration with
    t < 1e-14) end a start.  The working arrays hold only live starts, so a
    start that has ended is evaluated no more.  When every live start
    accepts its first step the candidates become the working arrays; starts
    that fail it try the next halvings in rungs of one kernel call each and
    take the first that passes, the step the one-halving-at-a-time search
    accepts.  A rung holds as many halvings as the start has tried (at
    least one, at most LADDER), so a start evaluates fewer than twice the
    halvings that search evaluates, and a 39-halving tail takes 8 calls.  A
    rung call takes at most R // L starts for rung length L (at least one),
    so its kernel arrays are no larger than the first call's unless R < L.

    Returns (final values, final points, converged flag of each point)."""
    Z_out = project(Z0)
    f_out, G = fg(Z_out, own)
    R = Z_out.shape[0]
    done = np.zeros(R, dtype=bool)
    live = np.arange(R)
    Z, f, o = Z_out, f_out, own  # live rows are written back at their end
    t = np.full(R, STEP0)
    stalled = np.zeros(R, dtype=np.int64)

    def moved(fk, fz, tk, sk):
        """Stall counts and next steps of starts that move from fk to fz
        with steps tk: a relative gain below TOL counts as a stall, and the
        step grows by 1.25 up to STEP_MAX."""
        rel = (fz - fk) / np.maximum(np.abs(fk), 1e-300)
        return np.where(rel < TOL, sk + 1, 0), np.minimum(tk * 1.25, STEP_MAX)

    def accept(k, cz, fz, gz, tk):
        stalled[k], t[k] = moved(f[k], fz, tk, stalled[k])
        Z[k], f[k], G[k] = cz, fz, gz

    def ladder(k, L):
        """Try L halvings of t[k] in one kernel call, accept each start's
        first passing step; returns the starts where none passed."""
        steps = t[k, None] * HALVINGS[:L]
        rows = np.repeat(k, L)
        Zr, Gr = Z[rows], G[rows]
        cz = project(Zr + steps.reshape(-1, 1) * Gr)
        fz, gz = fg(cz, None if o is None else o[rows])
        ok = _sufficient(fz, f[rows], Gr, cz, Zr).reshape(-1, L)
        hit = ok.any(axis=1)
        pick = np.flatnonzero(hit) * L + ok.argmax(axis=1)[hit]
        accept(k[hit], cz[pick], fz[pick], gz[pick], steps.ravel()[pick])
        t[k[~hit]] = steps[~hit, -1] * 0.5
        return k[~hit]

    for _ in range(cfg.iters):
        cand = project(Z + t[:, None] * G)
        fc, gc = fg(cand, o)
        ok = _sufficient(fc, f, G, cand, Z)
        if ok.all():
            stalled, t = moved(f, fc, t, stalled)
            Z, f, G = cand, fc, gc
        else:
            good, todo = np.flatnonzero(ok), np.flatnonzero(~ok)
            accept(good, cand[good], fc[good], gc[good], t[good])
            t[todo] *= 0.5
            h = 0  # halvings tried
            while todo.size and h < BACKTRACKS - 1:
                L = min(LADDER, max(h, 1), BACKTRACKS - 1 - h)
                per = max(1, R // L)  # starts per rung call
                todo = np.concatenate([ladder(todo[a:a + per], L)
                                       for a in range(0, todo.size, per)])
                h += L
            stalled[todo[t[todo] < 1e-14]] = 4
        end = stalled >= 4
        if end.any():
            gone, keep = live[end], ~end
            Z_out[gone], f_out[gone], done[gone] = Z[end], f[end], True
            live, Z, f, G, t, stalled = live[keep], Z[keep], f[keep], G[keep], t[keep], stalled[keep]
            o = None if own is None else own[live]
            if not live.size:
                break
    Z_out[live], f_out[live] = Z, f
    return f_out, Z_out, done


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


def _common_starts(n: int, p: float) -> list[np.ndarray]:
    """The coordinate vectors (rows of one n x n identity) and the flat vector."""
    return [*np.eye(n, dtype=np.complex128), _flat_point(n, p)]


def _structured_starts(A: np.ndarray, C: np.ndarray, p: float) -> list[list[np.ndarray]]:
    """Starts for each row c of C (coefficients over the rows of A): the
    common starts, the single-monomial maximizer of the largest |c|
    (lexicographically first alpha on ties), and, when every nonzero entry
    of c has degree 1, the Hoelder point."""
    n = A.shape[1]
    common = _common_starts(n, p)
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
            starts.append(phase * x)
        out.append(starts)
    return out


def _estimate(A: np.ndarray, C: np.ndarray, p: float, starts: list[list[np.ndarray]],
              cfg: OptConfig, nonneg: bool) -> list[NormEstimate]:
    """Multi-start projected gradient ascent on the unit sphere of l_p^n for
    each row c of C (coefficients over the rows of A) from starts[k] plus
    max(cfg.restarts - len(starts[k]), 1) random ones, drawn from cfg.seed
    as a one-row call draws them (rows may carry different start lists).
    All rows run in one _ascend call, split only where a point array would
    pass BATCH_ENTRIES entries (no start's path depends on another).
    nonneg=False maximizes |F|^2 over the complex sphere (the torus for
    p = inf); nonneg=True maximizes F (coefficients >= 0) over the
    nonnegative sphere.  A row's value is |F| at its witness, scaled into
    the closed unit ball.

    On the torus the direction is the tangent part of G = 2 F conj(grad F):
    coordinate j loses Re(w) z_j, its component along z_j, where
    w = conj(z_j) G_j.  Near a maximum |F| grows outward, so Re(w)
    dominates; kept, it makes the step angle of normalize(z_j + t G_j),
    atan(t Im(w) / (1 + t Re(w))), saturate near Im(w) / Re(w) whatever t
    is, and the step search no longer controls the step.  For p < inf the
    direction keeps its radial part: removing the component normal to the
    l_2 sphere made those ascents longer."""
    K, (T, n) = len(C), A.shape
    draws: dict[int, np.ndarray] = {}

    def fresh(k):
        count = max(cfg.restarts - len(starts[k]), 1)
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
    else:
        flat = _flat_point(n, p)

        def fg(Z, own):
            vals, grads = grad_batch(F, Z, own)
            G = 2.0 * vals[:, None] * np.conj(grads)
            if p == math.inf:  # |z_j| = 1: keep only the tangent part
                G -= (np.conj(Z) * G).real * Z
            return np.abs(vals) ** 2, G

        def project(Z):
            return _proj_sphere(Z, p, flat)

    cap = BATCH_ENTRIES // max(n, T)  # most starts in one ascent
    out: list[NormEstimate] = []
    k0 = 0
    while k0 < K:
        k1 = k0 + max(1, int(np.searchsorted(np.cumsum(R[k0:]), cap, side="right")))
        ks = np.arange(k0, k1)
        Z0 = np.vstack([z for k in ks for z in (*starts[k], *fresh(k))])
        own = None if K == 1 else np.repeat(ks, R[ks])
        f, Z, done = _ascend(fg, project, Z0, cfg, own)
        ends = np.cumsum(R[ks]).tolist()
        spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
        best = [s.start + pick_best(f[s]) for s in spans]
        W = np.array([Z[b] / max(lp_norm(Z[b], p), 1.0) for b in best])
        vals = eval_batch(F, W.astype(np.complex128), None if K == 1 else ks)
        out += [NormEstimate(float(abs(v)), w, int(r), bool(done[s].all()))
                for v, w, r, s in zip(vals, W, R[ks], spans)]
        k0 = k1
    return out


def _estimates(A: np.ndarray, C: np.ndarray, p: float, cfg: OptConfig | None, nonneg: bool,
               starts: Callable) -> list[NormEstimate]:
    """The one front end of every estimate: one NormEstimate per row c of C
    (coefficients over the rows of A) on the unit ball of l_p^n.  It checks
    cfg (default OptConfig(); the budget must be positive), the exponent p
    and the coefficients.  nonneg=False estimates sup |F|; nonneg=True the
    majorant, the sum of |c_alpha| x^alpha over the nonnegative sphere, so
    it works on the moduli of C.  A row with no nonzero entry of positive
    degree is constant and gets the modulus of its constant entry, exactly,
    at the origin.  The majorant is monotone in every coordinate, so at
    p = inf it is exact: the modulus sum at the all-ones point.  Every other
    row runs in one _estimate call, from the start lists starts(those rows)."""
    cfg = cfg or OptConfig()
    if cfg.restarts < 1 or cfg.iters < 1:
        raise ValueError("optimizer budget must be positive")
    if not (1 <= p):
        raise ValueError(f"need p >= 1, got {p}")
    if not np.isfinite(C).all():
        raise ValueError("non-finite coefficients")
    if nonneg:
        C = _moduli(C)
    n, deg = A.shape[1], A.sum(axis=1)
    live = C[:, deg > 0].any(axis=1)
    L = C if live.all() else C[live]
    if nonneg and p == math.inf:
        found = iter([NormEstimate(math.fsum(c), np.ones(n), cfg.restarts, True) for c in L])
    else:
        found = iter(_estimate(A, L, p, starts(L), cfg, nonneg) if len(L) else ())
    const = _moduli(C[:, deg == 0]).sum(axis=1)
    dtype = float if nonneg else np.complex128
    return [next(found) if ok else NormEstimate(float(a), np.zeros(n, dtype), cfg.restarts, True)
            for ok, a in zip(live, const)]


def sup_norms(A: np.ndarray, C: np.ndarray, p: float,
              cfg: OptConfig | None = None) -> list[NormEstimate]:
    """sup_norm of each row of C, coefficients over the rows of A, in one
    ascent; each row gets the starts of a one-row call on its own entries."""
    return _estimates(A, C, p, cfg, False, lambda L: _structured_starts(A, L, p))


def sup_norm(P: HomPoly, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |P| over the l_p unit ball by multi-start projected
    gradient ascent on |P|^2 (for p = inf the search lives on the torus)."""
    A, c = P.tables()
    return sup_norms(A, c[None, :], p, cfg)[0]


def majorant_sups(A: np.ndarray, C: np.ndarray, q: float,
                  cfg: OptConfig | None = None) -> list[NormEstimate]:
    """majorant_sup of each row of C, coefficients over the rows of A, in one
    ascent; each row gets the starts of a one-row call on its own entries."""
    return _estimates(A, C, q, cfg, True, lambda L: _structured_starts(A, L, q))


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
    witness is scaled by r.  Exact at q = inf, and in one variable, where
    the nonnegative l_q sphere is the point 1 for every q >= 1, so the
    q = inf rule applies."""
    if not r >= 0:
        raise ValueError(f"need r >= 0, got {r}")
    A, c = F.tables()
    # only a valid q is replaced: majorant_sups rejects q < 1 and NaN for any n
    q = math.inf if F.n == 1 and q >= 1 else q
    est = majorant_sups(A, (_moduli(c) * float(r) ** A.sum(axis=1))[None, :], q, cfg)[0]
    return replace(est, witness=r * est.witness)


def series_sup(F: TruncatedSeries, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |F| over the l_p unit ball (attained on the sphere by
    subharmonicity; on the torus for p = inf)."""
    A, c = F.tables()
    return _estimates(A, c[None, :], p, cfg, False, lambda L: [_common_starts(F.n, p)])[0]


def series_part_sups(F: TruncatedSeries, p: float,
                     cfg: OptConfig | None = None) -> list[NormEstimate]:
    """series_sup(F) and then sup_norm of each homogeneous part of F, in one
    ascent on the series' table: row 0 holds F's coefficients and row k the
    same vector with every entry outside degree k set to zero.  Each row
    keeps the starts and random draws of its one-row call, so each estimate
    is that call's up to the last-bit rounding of batched matrix products;
    an all-zero part gets the exact zero estimate."""
    A, c = F.tables()
    deg = A.sum(axis=1)
    C = np.array([c] + [np.where(deg == P.m, c, 0) for P in F.parts])
    # when any part is nonzero, row 0 is live and comes first
    return _estimates(A, C, p, cfg, False,
                      lambda L: [_common_starts(F.n, p), *_structured_starts(A, L[1:], p)])


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
