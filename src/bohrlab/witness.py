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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bounds import (FOURIER_SOURCE, LINEAR_SOURCE, LOG_FLOAT_MAX, ExponentPair, _exp,
                     chi_fourier, chi_linear, chi_upper_ends, conjugate, inv, lempoly_rhs,
                     log_chi_uppers)
from .multiindex import enumerate_j, enumerate_lambda, lambda_card, tuple_to_alpha
from .optimize import (BATCH_ENTRIES, STEP_CAP, OptConfig, NormEstimate, majorant_sups, pick_best,
                       sup_norm, sup_norms, to_sphere)
from .polynomial import HomPoly, MonomialTable, chain_vars, monomials, multiplicities


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
TOP_K = 8  # cheap leaders re-scored with the optimizer
SLACK = 1.05  # deflation of lower bounds whose denominator is an estimate
SEARCH_OPT = OptConfig(restarts=16, iters=150)  # optimizer settings when none are given


def _mc_sphere_points(n: int, p: float, count: int, seed: int) -> np.ndarray:
    """Seeded random points on the l_p sphere (torus for p = inf)."""
    rng = np.random.default_rng(seed)
    if p == math.inf:
        return np.exp(2j * np.pi * rng.random((count, n)))
    return to_sphere(rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)), p)


def _mc_nonneg_points(n: int, q: float, count: int, seed: int) -> np.ndarray:
    """Seeded random points on the nonnegative l_q sphere."""
    return to_sphere(np.abs(np.random.default_rng(seed).standard_normal((count, n))), q)


def _monomial_matrix(Z: np.ndarray, A: np.ndarray,
                     table: MonomialTable | None = None) -> np.ndarray:
    """Matrix z_s^alpha_t of shape (points, terms) for the rows alpha_t of A
    (compiled in table when given)."""
    return monomials(Z, A, table)


def _search_refusal(m: int, n: int, p: float) -> str | None:
    """Why sign_search refuses Lambda(m, n) at p, or None: past SIGN_CAP
    terms, or past the float range.  Its largest numbers are the
    coefficients times exponents c_alpha alpha_i <= m n^m and, for p < inf,
    the p-th powers the l_p norm of a try sums.  The ascent works on ln |F|
    and dF / F, which stay in range at any scale (optimize._log_grad), and
    evaluates F only on the sphere, where |F| <= n^m; the random points are
    scaled to moduli at most 1 before their norm (optimize.to_sphere); and
    no try moves a point of the sphere (moduli <= 1) farther than STEP_CAP,
    so a try's moduli are at most 1 + STEP_CAP and the norm that retracts it
    (l_p, or l_2 at p = 1, where the ascent runs in w with z = w |w|) sums
    at most n (1 + STEP_CAP)^max(p, 2).  An admitted index set's
    MonomialTable holds its down-closure, every monomial of degree <= m:
    C(n + m, m) entries, 513,591 at (1012, 2)."""
    if (T := lambda_card(m, n)) > SIGN_CAP:
        return f"index set size {T} exceeds cap {SIGN_CAP}"
    log_n, log_m = math.log(n), math.log(max(m, 1))
    log_sum = log_n + max(p, 2) * math.log(1 + STEP_CAP) if p < math.inf else 0.0
    if max(log_m + m * log_n, log_sum) >= LOG_FLOAT_MAX:
        return f"Lambda({m}, {n}) at p = {p:g} takes the sign search past the float range"
    return None


class _IndexSet(NamedTuple):
    """Lambda(m, n) compiled once for every witness that runs on it: its
    exponent matrix A (rows in enumerate_lambda order), the multiplicities
    m!/alpha! and the MonomialTable of A."""

    A: np.ndarray
    mults: np.ndarray
    table: MonomialTable


def _index_set(m: int, n: int) -> _IndexSet:
    alphas = list(enumerate_lambda(m, n))
    A = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    return _IndexSet(A, multiplicities(A), MonomialTable(A))


class _Scorer:
    """The Monte Carlo scoring matrix S[s, t] = mult_t z_s^alpha_t of an
    index set (rows alpha_t of its A) at the points Z, never formed whole:
    memory O(points (n + m) + T m) plus one block of at most BATCH_ENTRIES
    power-table entries."""

    def __init__(self, Z: np.ndarray, index_set: _IndexSet):
        self.Z, self.mults, self.table = Z, index_set.mults, index_set.table
        self.ZT = np.ascontiguousarray(Z.T)  # one coordinate's values per row
        # row t's variable indices, nondecreasing: the table's chain for alpha_t
        self.js = chain_vars(index_set.A).reshape(len(index_set.A), -1)

    def column(self, t: int) -> np.ndarray:
        """Column t (degree m >= 1): the coordinates of row t's chain
        multiplied in turn, each new factor times the product before it,
        as the power table multiplies them.  A complex product with fused
        multiply-adds can change its last bit when its factors swap, so
        only this order gives the table column bit for bit."""
        first, *rest = self.js[t].tolist()
        col = self.ZT[first]
        for v in rest:
            col = self.ZT[v] * col
        return col * self.mults[t]

    def map(self, f) -> list:
        """[f(B) for each block B of S]: the rows of consecutive points, cut
        from a power table of at most BATCH_ENTRIES entries.  Each block is
        freed before the next is built."""
        step = max(1, BATCH_ENTRIES // self.table.size)
        return [f(self._block(self.Z[a:a + step])) for a in range(0, len(self.Z), step)]

    def _block(self, Z: np.ndarray) -> np.ndarray:
        M = self.table.at_support(self.table.powers(Z))
        M *= self.mults
        return M


def _signs(T: int, bits: int) -> np.ndarray:
    """Sign pattern number bits of T signs: the first is +1, sign t is -1
    where bit t - 1 is set."""
    return np.array([1.0] + [-1.0 if bits >> (t - 1) & 1 else 1.0 for t in range(1, T)])


def sign_search(
    m: int,
    n: int,
    p: float,
    budget: int,
    seed: int,
    cfg: OptConfig | None = None,
    index_set: _IndexSet | None = None,
) -> tuple[dict, NormEstimate]:
    """Search sign patterns minimizing the sup-norm of the full multinomial
    polynomial sum of eps_alpha (m!/alpha!) z^alpha on the l_p ball.

    Simulated annealing over single-sign flips (geometric cooling, one sweep
    per index-set size) scored by a seeded random point set; when the
    whole pattern space fits in the budget it is enumerated instead.  The
    best few candidates are re-scored together with the full optimizer (cfg)
    and the winner's estimate (a lower bound on its true norm) is returned.

    The points x T scoring matrix is never formed (_Scorer): a flip builds
    the one column it changes, and the other energies come from point
    blocks of at most BATCH_ENTRIES power-table entries, so scoring memory
    does not grow with the index set's down-closure.  index_set is
    Lambda(m, n) as _index_set compiles it, compiled here when not given.
    """
    cfg = cfg or SEARCH_OPT
    if budget <= 0:
        raise ValueError("budget must be positive")
    if refusal := _search_refusal(m, n, p):
        raise ValueError(refusal)
    index_set = _index_set(m, n) if index_set is None else index_set
    A, mults, table = index_set
    T = len(A)
    S = _Scorer(_mc_sphere_points(n, p, MC_POINTS, seed), index_set)

    pool: dict[bytes, float] = {}

    def record(eps: np.ndarray, energy: float) -> None:
        key = eps.astype(np.int8).tobytes()
        if key not in pool or pool[key] > energy:
            pool[key] = energy

    rng = np.random.default_rng(seed)
    if T <= 1 or 2 ** (T - 1) <= budget:
        # exhaustive: global sign flips are norm-neutral, fix the first sign
        count = 2 ** max(T - 1, 0)
        energies = np.max(S.map(lambda M: [np.abs(M @ _signs(T, bits)).max()
                                           for bits in range(count)]), axis=0)
        for bits in range(count):
            record(_signs(T, bits), float(energies[bits]))
    else:
        eps = np.ones(T)
        vals = np.concatenate(S.map(lambda M: M @ eps))
        energy = float(np.abs(vals).max())
        scale = max(energy, 1e-300)
        record(eps, energy)
        temp = 1.0
        for step in range(budget):
            if step and step % T == 0:
                temp *= 0.95
            t = int(rng.integers(T))
            delta = -2.0 * eps[t] * S.column(t)
            new_energy = float(np.abs(vals + delta).max())
            dE = (new_energy - energy) / scale
            if dE <= 0 or rng.random() < math.exp(-dE / max(temp, 1e-9)):
                eps[t] = -eps[t]
                vals = vals + delta
                energy = new_energy
                record(eps, energy)

    top = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))[:TOP_K]
    eps = np.array([np.frombuffer(key, dtype=np.int8) for key, _ in top])
    ests = sup_norms(A, eps * mults, p, cfg, table)
    i = pick_best(-np.array([e.value for e in ests]))  # earliest of the least norms
    return dict(zip(map(tuple, A.tolist()), eps[i].tolist())), ests[i]


def chi_lower_flat(m: int, n: int, q: float, norm_p: float) -> float:
    """Flat-point chain: chi >= n^(m(1-1/q)) / norm_p, where norm_p upper
    bounds the norm of a full multinomial sign polynomial on the l_p ball.
    A ValueError naming ln chi_lower_flat past the float range."""
    if norm_p <= 0:
        raise ValueError("norm must be positive")
    power = m * (1.0 - inv(q))
    value = _exp(power * math.log(n) - math.log(norm_p), "chi_lower_flat")
    return n ** power / norm_p if power * math.log(n) < 700 else value  # rounds as before


def _monomial_ratios(A: np.ndarray, e: ExponentPair) -> np.ndarray:
    """The exact ratio (majorant sup on the l_q ball) / (sup-norm on the l_p
    ball) of each monomial z^alpha, alpha a row of A of degree m: both sups
    are attained where |z_i|^r = alpha_i / m (r = q, then p), so the ratio
    is prod_i (alpha_i / m)^(alpha_i (1/q - 1/p)), with 0^0 = 1.  It is 1
    in one variable, at most 1 for q <= p and at least 1 for q >= p: 4 at
    alpha = (1, 1), (p, q) = (1, inf)."""
    m = np.maximum(A.sum(axis=1, keepdims=True), 1)
    logs = np.log(np.where(A > 0, A / m, 1.0))
    return np.exp((inv(e.q) - inv(e.p)) * (A * logs).sum(axis=1))


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
    index_set: _IndexSet | None = None,
) -> BruteChi:
    """Estimate chi as the sup over polynomials of (majorant sup on the l_q
    ball) / (sup-norm on the l_p ball) via random coefficient ensembles with
    local coefficient-space ascent on the leader.

    Ensembles: standard complex Gaussian, Rademacher-times-multiplicity, the
    flat (all-ones and all-multiplicities) probes, and single-monomial probes.
    Draws are pre-scored on seeded random point sets; the leaders are
    re-scored together with the full optimizer (cfg).  The single-monomial
    probes take their exact ratios (_monomial_ratios) and never reach the
    optimizer: it re-scores the flat probes, the other cheap leaders and
    the locally ascended lead (unless that is still a monomial probe).
    index_set is Lambda(m, n) as _index_set compiles it, compiled here when
    not given.
    """
    cfg = cfg or SEARCH_OPT
    T = lambda_card(m, n)
    if T > BRUTE_CAP:
        raise ValueError(f"index set size {T} exceeds brute cap {BRUTE_CAP}")
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    A, mults, table = _index_set(m, n) if index_set is None else index_set

    rng = np.random.default_rng(seed)
    half = samples // 2
    gauss = (rng.standard_normal((half, T)) + 1j * rng.standard_normal((half, T))) / np.sqrt(2)
    rade = rng.choice([-1.0, 1.0], size=(samples - half, T)) * mults[None, :]
    probes = np.vstack([np.ones((1, T)), mults[None, :], np.eye(T)])
    C = np.vstack([probes, gauss, rade.astype(complex)])
    n_probes = probes.shape[0]

    Mon_q = _monomial_matrix(_mc_nonneg_points(n, e.q, 256, seed + 1), A, table)
    Mon_p = _monomial_matrix(_mc_sphere_points(n, e.p, 256, seed + 2), A, table)

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
    refine = [i for i in order[:TOP_K] if not 2 <= i < n_probes] + [0, 1]
    candidates = {C[i].tobytes(): C[i] for i in dict.fromkeys(refine)}
    candidates.setdefault(lead.tobytes(), lead)
    for row in C[2:n_probes]:  # the single-monomial probes, scored exactly below
        candidates.pop(row.tobytes(), None)
    rows = np.array(list(candidates.values()))
    nums, dens = majorant_sups(A, rows, e.q, cfg, table), sup_norms(A, rows, e.p, cfg, table)
    best = max([a.value / b.value for a, b in zip(nums, dens) if b.value > 0]
               + _monomial_ratios(A, e).tolist())
    return BruteChi(best, best / SLACK)


def chi_lower_end(
    m: int,
    n: int,
    e: ExponentPair,
    cfg: OptConfig | None = None,
    sign_budget: int = 2000,
    samples: int = 1000,
) -> Endpoint:
    """The best available lower end for chi(m, n; p, q).

    At m = 1 inside the float range it is the exact value, a few ulps
    below where it is not 1 (bounds.chi_linear), and no search runs.
    Otherwise it is the max of 1, at m = 2 the Fourier quadratic form's
    n^(3/2 - 2/q - max(0, 1 - 2/p)) where that exceeds 1 (bounds.chi_fourier,
    certified and a few ulps low), the flat-point chain through a
    sign-pattern search, and the brute oracle on tiny instances
    (estimate-based candidates are slack-deflated and marked estimate);
    the first of equal candidates stands.  An estimate-based candidate
    above the proved chi upper end (log_chi_uppers, taken only when such a
    candidate leads) is dropped, and the end that stands names it in its
    source.  sign_budget=0 skips the search chain (as does an index set
    sign_search refuses).  Both searches use the seed cfg.seed
    and one compiled Lambda(m, n); m < 1 or samples < 1000 fails before
    either runs.
    """
    if m < 1 or samples < 1000:  # samples checked here too, so no search runs first
        raise ValueError(f"need m >= 1 and samples >= 1000, got m={m}, samples={samples}")
    if m == 1 and (exact := chi_linear(n, e)) < math.inf:
        return Endpoint(exact, LINEAR_SOURCE)
    cfg = cfg or SEARCH_OPT
    lower_cands, deflated = [Endpoint(1.0, "trivial")], "(estimate-based, slack-deflated)"
    if m == 2 and 1 < (fourier := chi_fourier(n, e)) < math.inf:
        lower_cands.append(Endpoint(fourier, FOURIER_SOURCE))
    search = sign_budget > 0 and _search_refusal(m, n, e.p) is None
    brute = lambda_card(m, n) <= BRUTE_CAP
    index_set = _index_set(m, n) if search or brute else None
    if search:
        _, est = sign_search(m, n, e.p, sign_budget, cfg.seed, cfg, index_set)
        if est.value > 0:
            flat = chi_lower_flat(m, n, e.q, est.value) / SLACK
            lower_cands.append(Endpoint(flat, f"sign-search flat point {deflated}", True))
    if brute:
        bc = brute_chi(m, n, e, samples=samples, seed=cfg.seed, cfg=cfg, index_set=index_set)
        lower_cands.append(Endpoint(bc.deflated, f"brute oracle {deflated}", True))
    best = max(lower_cands, key=lambda c: c.value)
    if not best.estimate:
        return best
    # an estimate can be low by more than SLACK: a candidate above the
    # proved upper end is refuted, and the next one stands
    up = chi_upper_ends(log_chi_uppers([m], n, e)[0][0], m)[0]
    if best.value <= up:
        return best
    dropped = ", ".join(f"{c.source.removesuffix(' ' + deflated)} {c.value:.17g}"
                        for c in lower_cands if c.value > up)
    best = max((c for c in lower_cands if c.value <= up), key=lambda c: c.value)
    return replace(best, source=f"{best.source}; {dropped} dropped above the proved upper "
                                f"end {up:.17g}")


def chi_bracket(
    m: int,
    n: int,
    e: ExponentPair,
    cfg: OptConfig | None = None,
    sign_budget: int = 2000,
    samples: int = 1000,
) -> BoundBracket:
    """Assemble the best available [lower, upper] bracket for chi.

    Lower: chi_lower_end (the arguments after e are its own).  Upper: the
    least closed form (bounds.log_chi_uppers), rounded up by
    bounds.chi_upper_ends; at m = 1 both ends are the exact value, a few
    ulps outward where it is not 1, and no search runs inside the float
    range.  At m = 2 and p = 2, q <= 2 both ends are n^max(0, 3/2 - 2/q)
    (sqrt(n) at q = 2), the Fourier quadratic form's value and the
    Schur-Hadamard record's, each rounded outward.
    """
    lower = chi_lower_end(m, n, e, cfg, sign_budget, samples)
    [(log_up, source)] = log_chi_uppers([m], n, e)
    return BoundBracket(lower, Endpoint(chi_upper_ends(log_up, m)[0], source), m)


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
