"""Randomized constructions certifying lower bounds on the mixed
unconditionality constant (hence upper bounds on Bohr radii): sign-pattern
search over random-sign multinomial polynomials, the flat-point evaluation
chain, a brute-force oracle for tiny instances, and the slice-inequality
checker.

Lower bounds built from optimizer output are published both raw and
slack-deflated: the chain needs a true upper bound on the search
polynomial's norm, while the optimizer only certifies lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.stats import norm as _gauss
from scipy.stats import qmc

from .bounds import ExponentPair, chi_upper_small_pq, coeff_chi_upper_generic, inv
from .multiindex import enumerate_j, enumerate_lambda, lambda_card, multiplicity, tuple_to_alpha
from .optimize import OptConfig, NormEstimate, lp_norm, majorant_sup, sup_norm
from .polynomial import HomPoly, monomials, sign_polynomial


@dataclass(frozen=True)
class BoundBracket:
    """[lower, upper] for a chi value with per-endpoint provenance."""

    lower: float
    upper: float
    lower_src: str
    upper_src: str
    instance: tuple  # (m, n, p, q)


@dataclass
class SearchConfig:
    seed: int = 0
    mc_points: int = 512
    sign_cap: int = 20_000
    brute_cap: int = 50
    slack: float = 1.05
    top_k: int = 8
    opt: OptConfig = field(default_factory=lambda: OptConfig(restarts=16, iters=150))


def _mc_sphere_points(n: int, p: float, count: int, seed: int) -> np.ndarray:
    """Fixed quasi-random points on the l_p sphere (torus for p = inf)."""
    if p == math.inf:
        u = qmc.Sobol(d=n, scramble=True, seed=seed).random(count)
        return np.exp(2j * np.pi * u)
    u = qmc.Sobol(d=2 * n, scramble=True, seed=seed).random(count)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    g = _gauss.ppf(u)
    z = g[:, :n] + 1j * g[:, n:]
    return z / lp_norm(z, p)[:, None]


def _mc_nonneg_points(n: int, q: float, count: int, seed: int) -> np.ndarray:
    """Fixed quasi-random points on the nonnegative l_q sphere."""
    u = qmc.Sobol(d=n, scramble=True, seed=seed).random(count)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    x = np.abs(_gauss.ppf(u))
    if q == math.inf:
        return x / x.max(axis=1, keepdims=True)
    return x / lp_norm(x, q)[:, None]


def _monomial_matrix(Z: np.ndarray, alphas: list[tuple[int, ...]]) -> np.ndarray:
    """Matrix z_s^alpha_t of shape (points, terms)."""
    return monomials(Z, np.array(alphas, dtype=np.int64).reshape(len(alphas), Z.shape[1]))


def sign_search(
    m: int,
    n: int,
    p: float,
    budget: int,
    seed: int,
    cfg: SearchConfig | None = None,
) -> tuple[dict, NormEstimate]:
    """Search sign patterns minimizing the sup-norm of the full multinomial
    polynomial sum of eps_alpha (m!/alpha!) z^alpha on the l_p ball.

    Simulated annealing over single-sign flips (geometric cooling, one sweep
    per index-set size) scored by a fixed quasi-random point set; when the
    whole pattern space fits in the budget it is enumerated instead.  The
    best few candidates are re-scored with the full optimizer and the
    winner's estimate (a lower bound on its true norm) is returned.
    """
    cfg = cfg or SearchConfig(seed=seed)
    if budget <= 0:
        raise ValueError("budget must be positive")
    T = lambda_card(m, n)
    if T > cfg.sign_cap:
        raise ValueError(f"index set size {T} exceeds cap {cfg.sign_cap}")
    alphas = list(enumerate_lambda(m, n))
    mults = np.array([float(multiplicity(a)) for a in alphas])
    Z = _mc_sphere_points(n, p, cfg.mc_points, seed)
    M = _monomial_matrix(Z, alphas) * mults[None, :]

    pool: dict[bytes, float] = {}

    def record(eps: np.ndarray, energy: float) -> None:
        key = eps.astype(np.int8).tobytes()
        if key not in pool or pool[key] > energy:
            pool[key] = energy

    rng = np.random.default_rng(seed)
    if T <= 1 or 2 ** (T - 1) <= budget:
        # exhaustive: global sign flips are norm-neutral, fix the first sign
        for bits in range(2 ** max(T - 1, 0)):
            eps = np.ones(T)
            for t in range(1, T):
                if bits >> (t - 1) & 1:
                    eps[t] = -1.0
            record(eps, float(np.abs(M @ eps).max()))
    else:
        eps = np.ones(T)
        vals = M @ eps
        energy = float(np.abs(vals).max())
        scale = max(energy, 1e-300)
        record(eps, energy)
        temp = 1.0
        for step in range(budget):
            if step and step % T == 0:
                temp *= 0.95
            t = int(rng.integers(T))
            delta = -2.0 * eps[t] * M[:, t]
            new_energy = float(np.abs(vals + delta).max())
            dE = (new_energy - energy) / scale
            if dE <= 0 or rng.random() < math.exp(-dE / max(temp, 1e-9)):
                eps[t] = -eps[t]
                vals = vals + delta
                energy = new_energy
                record(eps, energy)

    top = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))[: cfg.top_k]
    best_est: NormEstimate | None = None
    best_signs: dict | None = None
    for key, _ in top:
        eps = np.frombuffer(key, dtype=np.int8).astype(int)
        signs = {a: int(s) for a, s in zip(alphas, eps)}
        est = sup_norm(sign_polynomial(m, n, signs), p, cfg.opt)
        if best_est is None or est.value < best_est.value:
            best_est, best_signs = est, signs
    assert best_est is not None and best_signs is not None
    return best_signs, best_est


def chi_lower_flat(m: int, n: int, q: float, norm_p: float) -> float:
    """Flat-point chain: chi >= n^(m(1-1/q)) / norm_p, where norm_p upper
    bounds the norm of a full multinomial sign polynomial on the l_p ball."""
    if norm_p <= 0:
        raise ValueError("norm must be positive")
    return n ** (m * (1.0 - inv(q))) / norm_p


class BruteChi(NamedTuple):
    """Best majorant/sup ratio found (raw) and its slack-deflated version
    accounting for possible underestimation of the denominator."""

    raw: float
    deflated: float


def brute_chi(
    m: int,
    n: int,
    e: ExponentPair,
    samples: int = 1000,
    seed: int = 0,
    cfg: SearchConfig | None = None,
) -> BruteChi:
    """Estimate chi as the sup over polynomials of (majorant sup on the l_q
    ball) / (sup-norm on the l_p ball) via random coefficient ensembles with
    local coefficient-space ascent on the leader.

    Ensembles: standard complex Gaussian, Rademacher-times-multiplicity, the
    flat (all-ones and all-multiplicities) probes, and single-monomial probes.
    Draws are pre-scored on fixed quasi-random point sets; the leaders are
    re-scored with the full optimizer.
    """
    cfg = cfg or SearchConfig(seed=seed)
    T = lambda_card(m, n)
    if T > cfg.brute_cap:
        raise ValueError(f"index set size {T} exceeds brute cap {cfg.brute_cap}")
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    alphas = list(enumerate_lambda(m, n))
    mults = np.array([float(multiplicity(a)) for a in alphas])

    rng = np.random.default_rng(seed)
    half = samples // 2
    gauss = (rng.standard_normal((half, T)) + 1j * rng.standard_normal((half, T))) / np.sqrt(2)
    rade = rng.choice([-1.0, 1.0], size=(samples - half, T)) * mults[None, :]
    probes = np.vstack([np.ones((1, T)), mults[None, :], np.eye(T)])
    C = np.vstack([probes, gauss, rade.astype(complex)])
    n_probes = probes.shape[0]

    Xq = _mc_nonneg_points(n, e.q, 256, seed + 1)
    Zp = _mc_sphere_points(n, e.p, 256, seed + 2)
    Mon_q = _monomial_matrix(Xq, alphas)
    Mon_p = _monomial_matrix(Zp, alphas)

    def cheap_ratio(coeffs: np.ndarray) -> np.ndarray:
        num = (np.abs(coeffs) @ Mon_q.T).max(axis=1)
        den = np.abs(coeffs @ Mon_p.T).max(axis=1)
        return num / np.maximum(den, 1e-300)

    est = cheap_ratio(C)

    # local coefficient-space ascent on the cheap leader
    lead = C[int(est.argmax())].copy()
    lead_score = float(cheap_ratio(lead[None, :])[0])
    sigma = 0.2
    for _ in range(80):
        prop = lead + sigma * np.linalg.norm(lead) / math.sqrt(T) * (
            rng.standard_normal(T) + 1j * rng.standard_normal(T)
        )
        score = float(cheap_ratio(prop[None, :])[0])
        if score > lead_score:
            lead, lead_score = prop, score
        else:
            sigma *= 0.97

    order = np.argsort(est)[::-1]
    refine = list(order[: cfg.top_k]) + list(range(n_probes))
    seen = set()
    best = 0.0
    candidates = [C[i] for i in dict.fromkeys(refine)] + [lead]
    for coeffs in candidates:
        key = coeffs.tobytes()
        if key in seen:
            continue
        seen.add(key)
        P = HomPoly(n, m, dict(zip(alphas, coeffs)))
        if not P.coeffs:
            continue
        num = majorant_sup(P, e.q, cfg.opt).value
        den = sup_norm(P, e.p, cfg.opt).value
        if den > 0:
            best = max(best, num / den)
    return BruteChi(best, best / cfg.slack)


def chi_bracket(
    m: int,
    n: int,
    e: ExponentPair,
    cfg: SearchConfig | None = None,
    sign_budget: int = 2000,
    samples: int = 1000,
    use_brute: bool = True,
) -> BoundBracket:
    """Assemble the best available [lower, upper] bracket for chi.

    Lower: max of 1, the flat-point chain through a sign-pattern search, and
    the brute oracle on tiny instances (estimate-based candidates are
    slack-deflated).  Upper: min of the coefficient bound and, for
    q <= p <= 2, the small-exponent lemma.  sign_budget=0 skips the search
    chain (as does an index set above the configured cap).
    """
    cfg = cfg or SearchConfig()
    lower_cands: list[tuple[float, str]] = [(1.0, "trivial")]
    if sign_budget > 0 and lambda_card(m, n) <= cfg.sign_cap:
        _, est = sign_search(m, n, e.p, sign_budget, cfg.seed, cfg)
        if est.value > 0:
            flat = chi_lower_flat(m, n, e.q, est.value) / cfg.slack
            lower_cands.append(
                (flat, "sign-search flat point (estimate-based, slack-deflated)"))
    if use_brute and lambda_card(m, n) <= cfg.brute_cap:
        bc = brute_chi(m, n, e, samples=samples, seed=cfg.seed, cfg=cfg)
        lower_cands.append((bc.deflated, "brute oracle (estimate-based, slack-deflated)"))

    upper_cands: list[tuple[float, str]] = [
        (coeff_chi_upper_generic(m, n, e.p), "coefficient bound")
    ]
    if 1 <= e.q <= e.p <= 2:
        upper_cands.append((chi_upper_small_pq(m, n, e), "small-exponent lemma"))

    lo, lo_src = max(lower_cands, key=lambda c: c[0])
    up, up_src = min(upper_cands, key=lambda c: c[0])
    return BoundBracket(lo, up, lo_src, up_src, (m, n, e.p, e.q))


@dataclass(frozen=True)
class LempolyRow:
    j: tuple[int, ...]
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class LempolyReport:
    rows: tuple[LempolyRow, ...]
    all_pass: bool
    norm: float


def lempoly_check(P: HomPoly, p: float, slack: float = 1.05,
                  cfg: OptConfig | None = None) -> LempolyReport:
    """Verify, for every length-(m-1) tuple j, that the l_p' norm of the
    coefficient slice (c_(j,k))_k is at most
    slack * m e^(1+(m-1)/p) |j|^(1/p) * ||P||.

    The left side is exact from the coefficients; the norm on the right is
    the optimizer's certified lower bound, so the check is conservative and
    failures are reported, not raised."""
    from .bounds import lempoly_rhs

    m, n = P.m, P.n
    if m < 2:
        raise ValueError("slice check needs m >= 2")
    norm = sup_norm(P, p, cfg).value
    pc = math.inf if p == 1 else (1.0 if p == math.inf else p / (p - 1.0))
    rows = []
    for j in enumerate_j(m - 1, n):
        last = j[-1] if j else 1
        slice_mods = []
        for k in range(last, n + 1):
            alpha = tuple_to_alpha(j + (k,), n)
            c = P.coeffs.get(alpha, 0.0)
            slice_mods.append(abs(c))
        if pc == math.inf:
            lhs = max(slice_mods)
        else:
            lhs = math.fsum(v**pc for v in slice_mods) ** (1.0 / pc)
        rhs = slack * lempoly_rhs(m, n, p, j) * norm
        rows.append(LempolyRow(j, lhs, rhs, lhs <= rhs))
    return LempolyReport(tuple(rows), all(r.ok for r in rows), norm)
