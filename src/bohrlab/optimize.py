"""Numerical maximization of polynomial moduli and majorant sums over l_p
balls, plus the rearrangement / prefix-norm machinery.

Every estimate produced here is a certified LOWER bound on the true norm:
the reported value is exactly the objective evaluated at the reported
witness.  Upper bounds come from the analytic formulas in ``bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .polynomial import HomPoly, TruncatedSeries, eval_batch, grad_batch, scale


STEP0 = 0.5  # first ascent step length
TOL = 1e-13  # relative gain below which an accepted step counts as stalled
BACKTRACKS = 40  # step halvings tried per iteration


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
        out = np.where(r > 0, Z / np.where(r > 0, r, 1.0), 1.0 + 0j)
        return out
    nrm = lp_norm(Z, p)
    dead = nrm == 0
    if dead.any():
        Z = Z.copy()
        Z[dead] = flat
        nrm = np.where(dead, 1.0, nrm)
    return Z / nrm[:, None]


def _ascend(
    fval: Callable[[np.ndarray], np.ndarray],
    fgrad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    Z0: np.ndarray,
    cfg: OptConfig,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Batched projected gradient ascent with Armijo backtracking.

    Returns (final values, final points, all_converged)."""
    Z = project(Z0)
    f = fval(Z)
    R = Z.shape[0]
    t = np.full(R, STEP0)
    stalled = np.zeros(R, dtype=np.int64)
    for _ in range(cfg.iters):
        if (stalled >= 4).all():
            break
        G = fgrad(Z)
        accepted = np.zeros(R, dtype=bool)
        for _ in range(BACKTRACKS):
            todo = ~accepted & (stalled < 4)
            if not todo.any():
                break
            cand = project(Z[todo] + t[todo, None] * G[todo])
            fc = fval(cand)
            # sufficient increase along the projected displacement: the raw
            # gradient is radial-dominated on the sphere and would stall early
            disp = ((np.conj(G[todo]) * (cand - Z[todo])).sum(axis=1)).real
            ok = fc >= f[todo] + 1e-4 * np.maximum(disp, 0.0)
            idx = np.flatnonzero(todo)
            good, bad = idx[ok], idx[~ok]
            Z[good] = cand[ok]
            rel = (fc[ok] - f[good]) / np.maximum(np.abs(f[good]), 1e-300)
            stalled[good] = np.where(rel < TOL, stalled[good] + 1, 0)
            f[good] = fc[ok]
            accepted[good] = True
            t[good] = np.minimum(t[good] * 1.25, 1e3)
            t[bad] *= 0.5
        stalled[~accepted & (t < 1e-14)] = 4
    return f, Z, bool((stalled >= 4).all())


def _pick_best(values: np.ndarray, points: np.ndarray) -> int:
    """Index of the maximum value; ties broken by lexicographically smallest
    witness moduli so that results are scheduling-independent."""
    vmax = values.max()
    cand = np.flatnonzero(values >= vmax - 1e-12 * max(1.0, abs(vmax)))
    return int(min(cand, key=lambda i: tuple(np.abs(points[i]))))


def _check_cfg(cfg: OptConfig) -> None:
    if cfg.restarts < 1 or cfg.iters < 1:
        raise ValueError("optimizer budget must be positive")


def _random_sphere_starts(rng, R: int, n: int, p: float) -> np.ndarray:
    G = rng.standard_normal((R, n)) + 1j * rng.standard_normal((R, n))
    if p == math.inf:
        r = np.abs(G)
        return np.where(r > 0, G / np.where(r > 0, r, 1.0), 1.0 + 0j)
    return G


def _flat_point(n: int, p: float) -> np.ndarray:
    if p == math.inf:
        return np.ones(n, dtype=np.complex128)
    return np.full(n, n ** (-1.0 / p), dtype=np.complex128)


def _structured_starts(P: HomPoly, p: float) -> list[np.ndarray]:
    """Coordinate vectors, the flat vector, the single-monomial maximizer of the
    largest coefficient, and (degree 1) the exact Hoelder point."""
    n = P.n
    starts = list(np.eye(n, dtype=np.complex128))
    starts.append(_flat_point(n, p))
    if P.coeffs:
        alpha = max(P.support(), key=lambda a: abs(P.coeffs[a]))
        x = np.array(alpha, dtype=float)
        if x.sum() > 0 and p != math.inf:
            # exact maximizer of a single monomial on the l_p sphere
            starts.append(((x / x.sum()) ** (1.0 / p)).astype(np.complex128))
    if P.m == 1 and P.coeffs:
        a = np.zeros(n, dtype=np.complex128)
        for al, c in P.coeffs.items():
            a[al.index(1)] = c
        mod = np.abs(a)
        phase = np.where(mod > 0, np.conj(a) / np.where(mod > 0, mod, 1.0), 1.0)
        if p == math.inf:
            starts.append(phase.astype(np.complex128))
        else:
            pc = math.inf if p == 1 else p / (p - 1.0)
            if pc == math.inf:  # p = 1: best coordinate
                x = np.zeros(n)
                x[int(mod.argmax())] = 1.0
            else:
                x = mod ** (pc / p)
                s = lp_norm(x, p)
                x = x / s if s > 0 else x
            starts.append(phase * x)
    return starts


def _estimate(F, p: float, starts: list[np.ndarray], cfg: OptConfig,
              nonneg: bool) -> NormEstimate:
    """Multi-start projected gradient ascent on the unit sphere of l_p^n from
    the given starts plus random ones drawn from cfg.seed.

    nonneg=False maximizes |F|^2 over the complex sphere (the torus for
    p = inf); nonneg=True maximizes F, whose coefficients must be
    nonnegative, over the nonnegative sphere.  The value is |F| at the
    witness, which is scaled into the closed unit ball."""
    n = F.n
    rng = np.random.default_rng(cfg.seed)
    n_rand = max(cfg.restarts - len(starts), 1)
    if nonneg:
        flat = _flat_point(n, p).real
        fresh = np.abs(rng.standard_normal((n_rand, n)))

        def fval(X):
            return eval_batch(F, X.astype(np.complex128)).real

        def fgrad(X):
            return grad_batch(F, X.astype(np.complex128))[1].real

        def project(X):
            return _proj_sphere(np.clip(X.real, 0.0, None), p, flat)
    else:
        flat = _flat_point(n, p)
        fresh = _random_sphere_starts(rng, n_rand, n, p)

        def fval(Z):
            return np.abs(eval_batch(F, Z)) ** 2

        def fgrad(Z):
            vals, grads = grad_batch(F, Z)
            return 2.0 * vals[:, None] * np.conj(grads)

        def project(Z):
            return _proj_sphere(Z, p, flat)

    Z0 = np.vstack([np.array(starts), fresh])
    f, Z, conv = _ascend(fval, fgrad, project, Z0, cfg)
    w = Z[_pick_best(f, Z)]
    nw = lp_norm(w, p)
    if nw > 1:
        w = w / nw
    value = float(abs(eval_batch(F, w[None, :].astype(np.complex128))[0]))
    return NormEstimate(value, w, Z0.shape[0], conv)


def sup_norm(P: HomPoly, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |P| over the l_p unit ball by multi-start projected
    gradient ascent on |P|^2 (for p = inf the search lives on the torus)."""
    cfg = cfg or OptConfig()
    _check_cfg(cfg)
    if not (1 <= p):
        raise ValueError(f"need p >= 1, got {p}")
    _, c = P.tables()
    if c.size and not np.all(np.isfinite(c)):
        raise ValueError("non-finite coefficients")
    if not P.coeffs:
        return NormEstimate(0.0, np.zeros(P.n, dtype=np.complex128), cfg.restarts, True)
    return _estimate(P, p, _structured_starts(P, p), cfg, nonneg=False)


def majorant_sup(P: HomPoly, q: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Maximize the coefficient-modulus sum over the nonnegative l_q sphere.

    The objective is monotone in every coordinate, so for q = inf the exact
    answer is the all-ones point."""
    cfg = cfg or OptConfig()
    _check_cfg(cfg)
    if not (1 <= q):
        raise ValueError(f"need q >= 1, got {q}")
    M = P.majorant()
    n = P.n
    if not M.coeffs:
        return NormEstimate(0.0, np.zeros(n), cfg.restarts, True)
    if q == math.inf:
        value = math.fsum(abs(c) for c in M.coeffs.values())
        return NormEstimate(value, np.ones(n), cfg.restarts, True)
    starts = [np.abs(s).astype(float) for s in _structured_starts(M, q)]
    return _estimate(M, q, starts, cfg, nonneg=True)


def bohr_sum(F: TruncatedSeries, r: float, q: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Maximize |a0| + sum_m r^m * (majorant of part m) over the nonnegative
    l_q sphere, i.e. the coefficient-modulus sum over the radius-r ball.

    One variable is exact (closed form); q = inf is exact (all-ones point)."""
    cfg = cfg or OptConfig()
    _check_cfg(cfg)
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    n = F.n
    base = abs(F.a0)
    if r == 0 or not any(P.coeffs for P in F.parts):
        return NormEstimate(base, np.zeros(n), cfg.restarts, True)
    if n == 1 or q == math.inf:
        value = base + math.fsum(
            sum(abs(c) for c in P.coeffs.values()) * r**P.m for P in F.parts
        )
        return NormEstimate(value, np.full(n, r), cfg.restarts, True)
    G = TruncatedSeries(n, base, [scale(P.majorant(), r**P.m) for P in F.parts])
    starts = [np.full(n, n ** (-1.0 / q)), *np.eye(n)]
    est = _estimate(G, q, starts, cfg, nonneg=True)
    return replace(est, witness=r * est.witness)


def series_sup(F: TruncatedSeries, p: float, cfg: OptConfig | None = None) -> NormEstimate:
    """Estimate sup of |F| over the l_p unit ball (attained on the sphere by
    subharmonicity; on the torus for p = inf)."""
    cfg = cfg or OptConfig()
    _check_cfg(cfg)
    n = F.n
    if not any(P.coeffs for P in F.parts):
        return NormEstimate(abs(F.a0), np.zeros(n, dtype=np.complex128), cfg.restarts, True)
    starts = [*np.eye(n, dtype=np.complex128), _flat_point(n, p)]
    return _estimate(F, p, starts, cfg, nonneg=False)


# --- rearrangement / prefix-norm machinery --------------------------------


def dec_rearrange(z) -> np.ndarray:
    """Moduli sorted nonincreasing."""
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries")
    return np.sort(np.abs(z))[::-1]


def x_infty_norm(z) -> float:
    """max over k = 2..n of (prefix l_2 norm of the decreasing rearrangement)
    divided by sqrt(log k).  Natural logarithm; needs length >= 2."""
    zs = dec_rearrange(z)
    n = len(zs)
    if n < 2:
        raise ValueError("need length >= 2")
    prefix = np.cumsum(zs**2)
    ks = np.arange(2, n + 1)
    return float(np.max(np.sqrt(prefix[1:]) / np.sqrt(np.log(ks))))


def id_norm_q_to_xinfty(n: int, q: float) -> float:
    """Exact norm of the identity from l_q^n into the prefix-norm space:
    max over k = 2..n of k^(1/2 - 1/q) / sqrt(log k).  Requires q >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    if q < 2:
        raise ValueError("formula direction needs q >= 2")
    iq = 0.0 if q == math.inf else 1.0 / q
    ks = np.arange(2, n + 1, dtype=float)
    return float(np.max(ks ** (0.5 - iq) / np.sqrt(np.log(ks))))


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
