"""Randomized constructions certifying lower bounds on the mixed
unconditionality constant (hence upper bounds on Bohr radii): sign-pattern
search over random-sign multinomial polynomials, the flat-point evaluation
chain, a brute-force oracle for tiny instances, and the slice-inequality
checker.

Lower bounds built from optimizer output are published both raw and
slack-deflated: the chain needs a true upper bound on the search
polynomial's norm, while the optimizer only certifies lower bounds.
Bracket ends built on such output are Endpoints marked estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import ExponentPair, _exp, conjugate, inv, lempoly_rhs, log_chi_upper
from .multiindex import enumerate_j, enumerate_lambda, lambda_card, multiplicity, tuple_to_alpha
from .optimize import (OptConfig, NormEstimate, lp_norm, majorant_sups, pick_best, sup_norm,
                       sup_norms)
from .polynomial import HomPoly, monomials


@dataclass(frozen=True)
class Endpoint:
    """One end of a bracket: its value, the closed form or witness it comes
    from, and whether it rests on an optimizer estimate."""

    value: float
    source: str
    estimate: bool = False


@dataclass(frozen=True)
class BoundBracket:
    """[lower, upper] for chi, K_m, K or the one-variable radius, with the
    degree(s) it refers to: an int, or a string like "all m <= M"."""

    lower: Endpoint
    upper: Endpoint
    m: object

    def __post_init__(self):
        if not self.lower.value <= self.upper.value:  # NaN fails too
            raise ValueError(f"invalid bracket: lower {self.lower.value} ({self.lower.source}) "
                             f"is not <= upper {self.upper.value} ({self.upper.source})")


MC_POINTS = 512  # seeded random points scoring each sign pattern
BRUTE_CAP = 50  # largest index set the brute oracle runs on
SIGN_CAP = 20_000  # largest index set the sign search runs on
STEP_MAX = 1e3  # largest step length of the projected ascent (optimize._ascend)
TOP_K = 8  # cheap leaders re-scored with the optimizer
SLACK = 1.05  # deflation of lower bounds whose denominator is an estimate
SEARCH_OPT = OptConfig(restarts=16, iters=150)  # optimizer settings when none are given


def _mc_sphere_points(n: int, p: float, count: int, seed: int) -> np.ndarray:
    """Seeded random points on the l_p sphere (torus for p = inf)."""
    rng = np.random.default_rng(seed)
    if p == math.inf:
        return np.exp(2j * np.pi * rng.random((count, n)))
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / lp_norm(z, p)[:, None]


def _mc_nonneg_points(n: int, q: float, count: int, seed: int) -> np.ndarray:
    """Seeded random points on the nonnegative l_q sphere."""
    x = np.abs(np.random.default_rng(seed).standard_normal((count, n)))
    return x / lp_norm(x, q)[:, None]


def _monomial_matrix(Z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Matrix z_s^alpha_t of shape (points, terms) for the rows alpha_t of A."""
    return monomials(Z, A)


def _search_refusal(m: int, n: int, p: float) -> str | None:
    """Why sign_search refuses Lambda(m, n) at p, or None: past SIGN_CAP
    terms, or past the float range.  Its largest numbers are c_alpha alpha_i
    <= m n^m and, as |F| <= n^(sm), |dF/dz_i| <= m n^(s(m-1)) on the unit
    sphere (s = 1 - 1/p), a step's entries 1 + STEP_MAX |2 F dF/dz_i| <= r =
    4 STEP_MAX m n^(s(2m-1)) and lp_norm's sum n r^p of them (r at p = inf)."""
    if (T := lambda_card(m, n)) > SIGN_CAP:
        return f"index set size {T} exceeds cap {SIGN_CAP}"
    s, log_n, log_m = 1.0 - inv(p), math.log(n), math.log(max(m, 1))
    log_r = math.log(4 * STEP_MAX) + log_m + s * (2 * m - 1) * log_n
    if max(log_m + m * log_n, log_r if p == math.inf else log_n + p * log_r) >= 709.0:
        return f"Lambda({m}, {n}) at p = {p:g} takes the sign search past the float range"
    return None


def _exponents(m: int, n: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The index set Lambda(m, n), its exponent matrix and its multiplicities."""
    alphas = list(enumerate_lambda(m, n))
    A = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    return alphas, A, np.array([float(multiplicity(a)) for a in alphas])


def sign_search(
    m: int,
    n: int,
    p: float,
    budget: int,
    seed: int,
    cfg: OptConfig | None = None,
) -> tuple[dict, NormEstimate]:
    """Search sign patterns minimizing the sup-norm of the full multinomial
    polynomial sum of eps_alpha (m!/alpha!) z^alpha on the l_p ball.

    Simulated annealing over single-sign flips (geometric cooling, one sweep
    per index-set size) scored by a seeded random point set; when the
    whole pattern space fits in the budget it is enumerated instead.  The
    best few candidates are re-scored together with the full optimizer (cfg)
    and the winner's estimate (a lower bound on its true norm) is returned.
    """
    cfg = cfg or SEARCH_OPT
    if budget <= 0:
        raise ValueError("budget must be positive")
    if refusal := _search_refusal(m, n, p):
        raise ValueError(refusal)
    alphas, A, mults = _exponents(m, n)
    T = len(alphas)
    M = _monomial_matrix(_mc_sphere_points(n, p, MC_POINTS, seed), A)
    M *= mults

    pool: dict[bytes, float] = {}

    def record(eps: np.ndarray, energy: float) -> None:
        key = eps.astype(np.int8).tobytes()
        if key not in pool or pool[key] > energy:
            pool[key] = energy

    rng = np.random.default_rng(seed)
    if T <= 1 or 2 ** (T - 1) <= budget:
        # exhaustive: global sign flips are norm-neutral, fix the first sign
        for bits in range(2 ** max(T - 1, 0)):
            eps = np.array([1.0] + [-1.0 if bits >> (t - 1) & 1 else 1.0 for t in range(1, T)])
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

    del M  # free the Monte Carlo matrix before the re-scoring ascent
    top = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))[:TOP_K]
    eps = np.array([np.frombuffer(key, dtype=np.int8) for key, _ in top])
    ests = sup_norms(A, eps * mults, p, cfg)
    i = pick_best(-np.array([e.value for e in ests]))  # earliest of the least norms
    return {a: int(s) for a, s in zip(alphas, eps[i])}, ests[i]


def chi_lower_flat(m: int, n: int, q: float, norm_p: float) -> float:
    """Flat-point chain: chi >= n^(m(1-1/q)) / norm_p, where norm_p upper
    bounds the norm of a full multinomial sign polynomial on the l_p ball.
    A ValueError naming ln chi_lower_flat past the float range."""
    if norm_p <= 0:
        raise ValueError("norm must be positive")
    power = m * (1.0 - inv(q))
    value = _exp(power * math.log(n) - math.log(norm_p), "chi_lower_flat")
    return n ** power / norm_p if power * math.log(n) < 700 else value  # rounds as before


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
    cfg: OptConfig | None = None,
) -> BruteChi:
    """Estimate chi as the sup over polynomials of (majorant sup on the l_q
    ball) / (sup-norm on the l_p ball) via random coefficient ensembles with
    local coefficient-space ascent on the leader.

    Ensembles: standard complex Gaussian, Rademacher-times-multiplicity, the
    flat (all-ones and all-multiplicities) probes, and single-monomial probes.
    Draws are pre-scored on seeded random point sets; the leaders are
    re-scored together with the full optimizer (cfg).
    """
    cfg = cfg or SEARCH_OPT
    T = lambda_card(m, n)
    if T > BRUTE_CAP:
        raise ValueError(f"index set size {T} exceeds brute cap {BRUTE_CAP}")
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    _, A, mults = _exponents(m, n)

    rng = np.random.default_rng(seed)
    half = samples // 2
    gauss = (rng.standard_normal((half, T)) + 1j * rng.standard_normal((half, T))) / np.sqrt(2)
    rade = rng.choice([-1.0, 1.0], size=(samples - half, T)) * mults[None, :]
    probes = np.vstack([np.ones((1, T)), mults[None, :], np.eye(T)])
    C = np.vstack([probes, gauss, rade.astype(complex)])
    n_probes = probes.shape[0]

    Mon_q = _monomial_matrix(_mc_nonneg_points(n, e.q, 256, seed + 1), A)
    Mon_p = _monomial_matrix(_mc_sphere_points(n, e.p, 256, seed + 2), A)

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
    refine = list(order[:TOP_K]) + list(range(n_probes))
    candidates = [C[i] for i in dict.fromkeys(refine)] + [lead]
    rows = np.array(list({c.tobytes(): c for c in candidates}.values()))
    nums, dens = majorant_sups(A, rows, e.q, cfg), sup_norms(A, rows, e.p, cfg)
    best = max([a.value / b.value for a, b in zip(nums, dens) if b.value > 0], default=0.0)
    return BruteChi(best, best / SLACK)


def chi_bracket(
    m: int,
    n: int,
    e: ExponentPair,
    cfg: OptConfig | None = None,
    sign_budget: int = 2000,
    samples: int = 1000,
) -> BoundBracket:
    """Assemble the best available [lower, upper] bracket for chi.

    Lower: max of 1, the flat-point chain through a sign-pattern search, and
    the brute oracle on tiny instances (estimate-based candidates are
    slack-deflated and marked estimate).  Upper: bounds.log_chi_upper, the
    smaller closed form (inf past the float range).  sign_budget=0 skips the
    search chain (as does an index set sign_search refuses).  Both searches
    use the seed cfg.seed; m < 1 or samples < 1000 fails before either runs.
    """
    if m < 1 or samples < 1000:  # samples checked here too, so no search runs first
        raise ValueError(f"need m >= 1 and samples >= 1000, got m={m}, samples={samples}")
    cfg = cfg or SEARCH_OPT
    lower_cands, deflated = [Endpoint(1.0, "trivial")], "(estimate-based, slack-deflated)"
    if sign_budget > 0 and _search_refusal(m, n, e.p) is None:
        _, est = sign_search(m, n, e.p, sign_budget, cfg.seed, cfg)
        if est.value > 0:
            flat = chi_lower_flat(m, n, e.q, est.value) / SLACK
            lower_cands.append(Endpoint(flat, f"sign-search flat point {deflated}", True))
    if lambda_card(m, n) <= BRUTE_CAP:
        bc = brute_chi(m, n, e, samples=samples, seed=cfg.seed, cfg=cfg)
        lower_cands.append(Endpoint(bc.deflated, f"brute oracle {deflated}", True))

    log_up, up_src = log_chi_upper(m, n, e)
    up = math.exp(log_up) if log_up < 709.0 else math.inf  # e^709.8 overflows
    return BoundBracket(max(lower_cands, key=lambda c: c.value), Endpoint(up, up_src), m)


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
    m, n = P.m, P.n
    if m < 2:
        raise ValueError("slice check needs m >= 2")
    norm = sup_norm(P, p, cfg).value
    pc = conjugate(p)
    rows = []
    for j in enumerate_j(m - 1, n):
        slice_mods = [abs(P.coeffs.get(tuple_to_alpha(j + (k,), n), 0.0))
                      for k in range(j[-1] if j else 1, n + 1)]
        if pc == math.inf:
            lhs = max(slice_mods)
        else:
            lhs = math.fsum(v**pc for v in slice_mods) ** (1.0 / pc)
        rhs = slack * lempoly_rhs(m, n, p, j) * norm
        rows.append(LempolyRow(j, lhs, rhs, lhs <= rhs))
    return LempolyReport(tuple(rows), all(r.ok for r in rows), norm)
