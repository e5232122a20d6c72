"""Sparse homogeneous polynomials, truncated power series, the specific
polynomial families used by the bound machinery, and the evaluation kernel.

HomPoly and TruncatedSeries hold no compiled state: the kernel takes a
PolyBatch, compiled when built.  Coefficients are double-precision complex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .multiindex import (
    MultiIndex,
    enumerate_lambda,
    multiplicity,
    validate_alpha,
)


GATHER_ENTRIES = 2**14  # largest parent gather of one power-table product


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
        M = _columns(Z, self.var)
        M[:, 0] = 1
        step = max(1, GATHER_ENTRIES // max(len(M), 1))
        for lo, hi, par in self.levels:
            for a in range(lo, hi, step):  # the gathered parents stay small
                b = min(a + step, hi)
                block = M[:, a:b]  # a view: *= writes into M
                block *= _columns(M, par[a - lo:b - lo])
        return M


def _columns(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """X[:, idx] in the layout that indexing gives it (column-major, so
    products with it round the same), gathered by take, which costs less
    per call."""
    return X.T.take(idx, axis=0).T


def monomials(Z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """z^alpha for every point z (row of Z) and every row alpha of A, shape
    (points, terms).  When the support is one run of table entries (a whole
    index set is) this is a view of the power table, not a second array."""
    table = MonomialTable(A)
    M, sup = table.powers(Z), table.support
    if sup.size and (sup == np.arange(sup[0], sup[0] + sup.size)).all():
        return M[:, sup[0]:sup[0] + sup.size]
    return M[:, sup]


class PolyBatch:
    """K polynomials on one support, compiled for the kernel once, when built:
    exponents A (T, n), coefficients C (K, T) and cf (K, size) over the
    monomial table's entries, and the derivative tensor D (K, len(rows), n),
    D[j, k, i] the coefficient of entry rows[k] in dP_j/dz_i."""

    def __init__(self, A: np.ndarray, C: np.ndarray):
        self.A, self.C = A, C
        self.table = table = MonomialTable(A)
        idx, terms, var = table.lower
        self.rows, k = np.unique(idx, return_inverse=True)
        self.cf = np.zeros((len(C), table.size), dtype=np.complex128)
        np.add.at(self.cf, (slice(None), table.support), C)
        self.D = np.zeros((len(C), self.rows.size, table.n), dtype=np.complex128)
        np.add.at(self.D, (slice(None), k.ravel(), var), C[:, terms] * A[terms, var])

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, C.T): the coefficients with a trailing polynomial axis."""
        return self.A, self.C.T


def _runs(own, R: int) -> list[tuple[int, int, int]]:
    """(first, end, polynomial) of each run of equal owners among R points;
    one run of polynomial 0 when own is None."""
    if own is None:
        return [(0, R, 0)]
    cut = (np.flatnonzero(own[1:] != own[:-1]) + 1).tolist()
    first = [0] + cut
    return list(zip(first, cut + [R], own[first].tolist()))


def _by_owner(M: np.ndarray, c: np.ndarray, runs) -> np.ndarray:
    """Rows first:end of M times c[k] for each run (first, end, k): each
    polynomial takes one slice of M per run, and one run is one product."""
    if len(runs) == 1:
        return M @ c[runs[0][2]]
    return np.concatenate([M[a:b] @ c[k] for a, b, k in runs])


def _eval_point(P, z) -> complex:
    """Evaluate at a single point, through a one-row PolyBatch built anew."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (P.n,):
        raise ValueError(f"point has shape {z.shape}, expected ({P.n},)")
    A, c = P.tables()
    return complex(eval_batch(PolyBatch(A, c[None, :]), z[None, :])[0])


def eval_batch(F: PolyBatch, Z: np.ndarray, own=None) -> np.ndarray:
    """Evaluate F at a batch of points, shape (R, n) -> (R,): point i on
    polynomial own[i] (polynomial 0 when own is None)."""
    M = F.table.powers(Z)
    return _by_owner(M, F.cf, _runs(own, len(M)))


def grad_batch(F: PolyBatch, Z: np.ndarray, own=None) -> tuple[np.ndarray, np.ndarray]:
    """Values and complex gradients of F at a batch of points (of polynomial
    own[i] at point i, polynomial 0 when own is None).

    Returns (vals (R,), grads (R, n)) with grads[r, i] = dP/dz_i.  Zero
    entries of Z are handled exactly (no division by coordinates).
    """
    M = F.table.powers(Z)
    runs = _runs(own, len(M))  # found once, shared by values and gradients
    return _by_owner(M, F.cf, runs), _by_owner(_columns(M, F.rows), F.D, runs)


class HomPoly:
    """m-homogeneous polynomial in n variables, sparse map alpha -> coefficient."""

    def __init__(
        self,
        n: int,
        m: int,
        coeffs: Mapping[MultiIndex, complex],
    ):
        if n < 1 or m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
        for alpha in coeffs:
            validate_alpha(alpha, m=m, n=n)
        self.n = n
        self.m = m
        self.coeffs = {a: complex(c) for a, c in coeffs.items() if c != 0}
        if not np.isfinite(list(self.coeffs.values())).all():
            raise ValueError("non-finite coefficient")

    def __repr__(self) -> str:
        return f"HomPoly(n={self.n}, m={self.m}, {len(self.coeffs)} terms)"

    def support(self) -> list[MultiIndex]:
        return sorted(self.coeffs)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix, coefficient vector) over the current sorted support."""
        sup = self.support()
        A = np.array(sup, dtype=np.int64).reshape(len(sup), self.n)
        return A, np.array([self.coeffs[a] for a in sup], dtype=np.complex128)

    eval = __call__ = _eval_point


@dataclass
class TruncatedSeries:
    """Constant term plus homogeneous parts of degrees 1..M (n variables)."""

    n: int
    a0: complex
    parts: list[HomPoly] = field(default_factory=list)

    def __post_init__(self):
        self.a0 = complex(self.a0)
        if not np.isfinite(self.a0):
            raise ValueError(f"non-finite constant term {self.a0}")
        for k, P in enumerate(self.parts, start=1):
            if P.n != self.n:
                raise ValueError(f"part {k} has n={P.n}, expected {self.n}")
            if P.m != k:
                raise ValueError(f"part at position {k} has degree {P.m}")

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix, coefficient vector) of the current series: the
        constant term (zero row) first, then each part's support in turn."""
        parts = [P.tables() for P in self.parts]
        A = np.vstack([np.zeros((1, self.n), dtype=np.int64)] + [a for a, _ in parts])
        return A, np.concatenate([[self.a0]] + [c for _, c in parts])

    eval = __call__ = _eval_point


def sign_polynomial(m: int, n: int, signs: Mapping[MultiIndex, int]) -> HomPoly:
    """Polynomial sum of eps_alpha * (m!/alpha!) * z^alpha for eps_alpha = +-1.

    Signs must be given on the whole degree-m index set.
    """
    coeffs: dict[MultiIndex, complex] = {}
    count = 0
    for alpha in enumerate_lambda(m, n):
        count += 1
        if alpha not in signs:
            raise ValueError(f"missing sign for {alpha}")
        s = signs[alpha]
        if s not in (1, -1):
            raise ValueError(f"sign for {alpha} must be +-1, got {s}")
        mult = multiplicity(alpha)
        coeffs[alpha] = float(s * mult)
    if count != len(signs):
        raise ValueError("signs defined outside the index set")
    return HomPoly(n, m, coeffs)


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
    try:
        coeffs = {tuple(t["alpha"]): complex(t["re"], t["im"]) for t in d["terms"]}
        n, m = operator.index(d["n"]), operator.index(d["m"])
    except (TypeError, KeyError, OverflowError) as exc:  # a field of the wrong shape or type
        raise ValueError(f"malformed polynomial: {exc!r}") from None
    return HomPoly(n, m, coeffs)


def series_to_dict(F: TruncatedSeries) -> dict:
    return {
        "n": F.n,
        "a0": {"re": F.a0.real, "im": F.a0.imag},
        "parts": [poly_to_dict(P) for P in F.parts],
    }


def series_from_dict(d: dict) -> TruncatedSeries:
    try:
        a0, n = complex(d["a0"]["re"], d["a0"]["im"]), operator.index(d["n"])
        parts = [poly_from_dict(x) for x in d["parts"]]
    except (TypeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed series: {exc!r}") from None
    return TruncatedSeries(n, a0, parts)
