"""Sparse homogeneous polynomials, truncated power series, and the specific
polynomial families used by the bound machinery.

Coefficients are double-precision complex.  Sign polynomials additionally
keep an exact integer shadow of each coefficient so that multinomial
identities can be checked bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError
from .multiindex import (
    MultiIndex,
    enumerate_lambda,
    lambda_card,
    multiplicity,
    validate_alpha,
)


class MonomialTable:
    """A support compiled into its down-closure, ordered by degree.

    A monomial is written as its nondecreasing tuple of variable indices j.
    Entry 0 is the constant monomial (); every other entry j is the entry of
    its parent j[:-1] times variable j[-1].  The closure also holds
    alpha - e_i for every support row alpha and every i with alpha_i > 0, so
    that derivatives are entries too.  ``support[t]`` is the entry of row t
    of the support.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=np.int64)
        T, n = A.shape
        flat = np.repeat(np.tile(np.arange(n), T), A.ravel()).tolist()
        deg = A.sum(axis=1)
        ends = np.cumsum(deg).tolist()
        js = [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]
        # drop the last occurrence of each distinct index i: j - e_i
        lower = [(t, j[k], j[:k] + j[k + 1 :]) for t, j in enumerate(js)
                 for k in range(len(j)) if k + 1 == len(j) or j[k] != j[k + 1]]
        by_degree: list[dict] = [{} for _ in range(deg.max(initial=0) + 1)]
        by_degree[0][()] = None
        for j in js + [lo for _, _, lo in lower]:
            while j not in by_degree[len(j)]:
                by_degree[len(j)][j] = None
                j = j[:-1]
        index = {j: k for k, j in enumerate(j for level in by_degree for j in level)}
        entries = list(index)
        offset = np.cumsum([0] + [len(level) for level in by_degree]).tolist()
        parent = np.array([0] + [index[j[:-1]] for j in entries[1:]], dtype=np.int64)
        self.n = n
        self.size = len(entries)
        self.var = np.array([0] + [j[-1] for j in entries[1:]], dtype=np.int64)
        # degree-1 entries are the coordinates themselves
        self.levels = [(lo, hi, parent[lo:hi]) for lo, hi in zip(offset[2:-1], offset[3:])]
        self.support = np.array([index[j] for j in js], dtype=np.int64)
        # (entry of alpha - e_i, support row of alpha, i) for alpha_i > 0
        rows, cols, low = zip(*lower) if lower else ((), (), ())
        self.lower = (np.array([index[j] for j in low], dtype=np.int64),
                      np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))

    def powers(self, Z: np.ndarray) -> np.ndarray:
        """z^beta for every point z (row of Z) and every entry beta, shape
        (R, size).  Zero coordinates are exact: nothing is divided."""
        M = Z[:, self.var]
        M[:, 0] = 1
        for lo, hi, par in self.levels:
            M[:, lo:hi] *= M[:, par]
        return M


def monomials(Z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """z^alpha for every point z (row of Z) and every row alpha of A, shape
    (points, terms)."""
    table = MonomialTable(A)
    return table.powers(Z)[:, table.support]


def _compiled(P) -> tuple[MonomialTable, np.ndarray, np.ndarray, np.ndarray]:
    """P's monomial table, its coefficient vector over the table's entries,
    and the derivative matrix D: D[k, i] is the coefficient of entry rows[k]
    in dP/dz_i.  Built once per object from P.tables()."""
    if getattr(P, "_kernel", None) is None:
        A, c = P.tables()
        table = MonomialTable(A)
        idx, terms, var = table.lower
        rows, k = np.unique(idx, return_inverse=True)
        cf = np.zeros(table.size, dtype=np.complex128)
        np.add.at(cf, table.support, c)
        D = np.zeros((rows.size, table.n), dtype=np.complex128)
        np.add.at(D, (k.ravel(), var), c[terms] * A[terms, var])
        P._kernel = (table, cf, rows, D)
    return P._kernel


def _eval_point(P, z) -> complex:
    """Evaluate at a single point."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (P.n,):
        raise ValueError(f"point has shape {z.shape}, expected ({P.n},)")
    return complex(eval_batch(P, z[None, :])[0])


def eval_batch(P, Z: np.ndarray) -> np.ndarray:
    """Evaluate P (anything with ``tables()``) at a batch of points, shape
    (R, n) -> (R,)."""
    table, c, _, _ = _compiled(P)
    return table.powers(Z) @ c


def grad_batch(P, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and complex gradients of P at a batch of points.

    Returns (vals (R,), grads (R, n)) with grads[r, i] = dP/dz_i.  Zero
    entries of Z are handled exactly (no division by coordinates).
    """
    table, c, rows, D = _compiled(P)
    M = table.powers(Z)
    return M @ c, M[:, rows] @ D


class HomPoly:
    """m-homogeneous polynomial in n variables, sparse map alpha -> coefficient."""

    def __init__(
        self,
        n: int,
        m: int,
        coeffs: Mapping[MultiIndex, complex],
        exact: Mapping[MultiIndex, int] | None = None,
    ):
        if n < 1 or m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
        for alpha in coeffs:
            validate_alpha(alpha, m=m, n=n)
        self.n = n
        self.m = m
        self.coeffs = {a: complex(c) for a, c in coeffs.items() if c != 0}
        self.exact = dict(exact) if exact is not None else None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"HomPoly(n={self.n}, m={self.m}, {len(self.coeffs)} terms)"

    def support(self) -> list[MultiIndex]:
        return sorted(self.coeffs)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix, coefficient vector) over the sorted support."""
        if self._tables is None:
            sup = self.support()
            A = np.array(sup, dtype=np.int64).reshape(len(sup), self.n)
            c = np.array([self.coeffs[a] for a in sup], dtype=np.complex128)
            self._tables = (A, c)
        return self._tables

    eval = __call__ = _eval_point

    def majorant(self) -> "HomPoly":
        """Polynomial with coefficients |a_alpha|."""
        return HomPoly(self.n, self.m, {a: abs(c) for a, c in self.coeffs.items()})

    def weight_restrict(self, w) -> "HomPoly":
        """Restriction P_w with a_alpha(P_w) = a_alpha(P) * w^alpha, so that
        P_w(z) = P(w*z) entrywise."""
        w = np.asarray(w, dtype=np.complex128)
        if w.shape != (self.n,):
            raise ValueError(f"weight has shape {w.shape}, expected ({self.n},)")
        A, c = self.tables()
        wa = monomials(w[None, :], A)[0]
        return HomPoly(self.n, self.m, dict(zip(self.support(), c * wa)))


@dataclass
class TruncatedSeries:
    """Constant term plus homogeneous parts of degrees 1..M (n variables)."""

    n: int
    a0: complex
    parts: list[HomPoly] = field(default_factory=list)
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a0 = complex(self.a0)
        for k, P in enumerate(self.parts, start=1):
            if P.n != self.n:
                raise ValueError(f"part {k} has n={P.n}, expected {self.n}")
            if P.m != k:
                raise ValueError(f"part at position {k} has degree {P.m}")

    @property
    def degree(self) -> int:
        return len(self.parts)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix, coefficient vector) of the whole series: the
        constant term (zero row) first, then each part's support in turn."""
        if self._tables is None:
            parts = [P.tables() for P in self.parts]
            A = np.vstack([np.zeros((1, self.n), dtype=np.int64)] + [a for a, _ in parts])
            self._tables = (A, np.concatenate([[self.a0]] + [c for _, c in parts]))
        return self._tables

    eval = __call__ = _eval_point


def sign_polynomial(m: int, n: int, signs: Mapping[MultiIndex, int]) -> HomPoly:
    """Polynomial sum of eps_alpha * (m!/alpha!) * z^alpha for eps_alpha = +-1.

    Signs must be given on the whole degree-m index set; the exact integer
    coefficients are retained alongside the float ones.
    """
    coeffs: dict[MultiIndex, complex] = {}
    exact: dict[MultiIndex, int] = {}
    count = 0
    for alpha in enumerate_lambda(m, n):
        count += 1
        if alpha not in signs:
            raise ValueError(f"missing sign for {alpha}")
        s = signs[alpha]
        if s not in (1, -1):
            raise ValueError(f"sign for {alpha} must be +-1, got {s}")
        mult = multiplicity(alpha)
        exact[alpha] = s * mult
        coeffs[alpha] = float(s * mult)
    if count != len(signs):
        raise ValueError("signs defined outside the index set")
    return HomPoly(n, m, coeffs, exact=exact)


def moebius_series(a: float, M: int) -> TruncatedSeries:
    """Truncation of the disk automorphism (a - z)/(1 - a z), 0 <= a < 1.

    Constant term a; degree-k coefficient -(1 - a^2) a^(k-1).  The classical
    extremal family for the one-dimensional radius-1/3 phenomenon.
    """
    if not 0 <= a < 1:
        raise ValueError(f"need 0 <= a < 1, got a={a}")
    if M < 1:
        raise ValueError(f"need M >= 1, got M={M}")
    parts = [HomPoly(1, k, {(k,): -(1 - a * a) * a ** (k - 1)}) for k in range(1, M + 1)]
    return TruncatedSeries(1, a, parts)


def random_series(
    n: int,
    M: int,
    seed: int,
    budget: int,
    p: float = 2.0,
    restarts: int = 48,
    margin: float = 1e-2,
) -> TruncatedSeries:
    """Random truncated series with standard complex Gaussian coefficients,
    rescaled so its estimated sup-norm on the l_p unit ball is <= 1.

    The sup estimate is a lower bound, so the rescale leaves a relative
    margin to keep the true sup below 1 as well.

    Deterministic for a fixed seed.  budget bounds the total coefficient
    count (constant term included)."""
    total = 1 + sum(lambda_card(k, n) for k in range(1, M + 1))
    if total > budget:
        raise BudgetExceededError(f"series needs {total} coefficients, budget {budget}")
    rng = np.random.default_rng(seed)

    def draw(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    a0 = complex(draw(1)[0])
    parts = []
    for k in range(1, M + 1):
        alphas = list(enumerate_lambda(k, n))
        cs = draw(len(alphas))
        parts.append(HomPoly(n, k, dict(zip(alphas, cs))))
    F = TruncatedSeries(n, a0, parts)

    from .optimize import OptConfig, series_sup  # deferred: optimize imports us

    est = series_sup(F, p, OptConfig(restarts=restarts, seed=seed)).value
    if est > 0:
        s = est * (1.0 + margin)
        F = TruncatedSeries(n, a0 / s, [scale(P, 1.0 / s) for P in parts])
    return F


def scale(P: HomPoly, factor: complex) -> HomPoly:
    return HomPoly(P.n, P.m, {a: c * factor for a, c in P.coeffs.items()})


# --- JSON wire format ---------------------------------------------------
# polynomial: { "n": int, "m": int, "terms": [ {"alpha": [..], "re": f, "im": f} ] }
# series:     { "n": int, "a0": {"re": f, "im": f}, "parts": [ polynomial.. ] }


def poly_to_dict(P: HomPoly) -> dict:
    return {
        "n": P.n,
        "m": P.m,
        "terms": [
            {"alpha": list(a), "re": P.coeffs[a].real, "im": P.coeffs[a].imag}
            for a in P.support()
        ],
    }


def poly_from_dict(d: dict) -> HomPoly:
    coeffs = {tuple(t["alpha"]): complex(t["re"], t["im"]) for t in d["terms"]}
    return HomPoly(int(d["n"]), int(d["m"]), coeffs)


def series_to_dict(F: TruncatedSeries) -> dict:
    return {
        "n": F.n,
        "a0": {"re": F.a0.real, "im": F.a0.imag},
        "parts": [poly_to_dict(P) for P in F.parts],
    }


def series_from_dict(d: dict) -> TruncatedSeries:
    a0 = complex(d["a0"]["re"], d["a0"]["im"])
    return TruncatedSeries(int(d["n"]), a0, [poly_from_dict(x) for x in d["parts"]])


def poly_dumps(P: HomPoly) -> str:
    return json.dumps(poly_to_dict(P), sort_keys=True)


def poly_loads(s: str) -> HomPoly:
    return poly_from_dict(json.loads(s))
