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


def chain_vars(A: np.ndarray) -> np.ndarray:
    """Each row alpha of A as its nondecreasing variable indices (i repeated
    alpha_i times), the rows one after another: memory O(sum of degrees)
    beside A's nonzero pattern."""
    rows, cols = np.nonzero(A)
    return np.repeat(cols, A[rows, cols])


def multiplicities(A: np.ndarray) -> np.ndarray:
    """m!/alpha! for every row alpha of A, each the float nearest the exact
    integer: multiplicity runs once per distinct multiset of exponents."""
    S = np.sort(A, axis=1)
    order = np.lexsort(S.T)  # rows of one multiset next to each other
    S = S[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    exact = np.array([float(multiplicity(s)) for s in S[new].tolist()])
    out = np.empty(len(S))
    out[order] = exact[new.cumsum() - 1]
    return out


class MonomialTable:
    """A support compiled into its down-closure, ordered by degree.

    A monomial is written as its nondecreasing tuple of variable indices j.
    Entry 0 is the constant monomial (); every other entry j is the entry of
    its parent j[:-1] times variable j[-1].  The closure also holds
    alpha - e_i for every support row alpha and every i with alpha_i > 0, so
    that derivatives are entries too.  ``support[t]`` is the entry of row t
    of the support.

    The items are the support rows, then each alpha - e_i (row by row, i
    increasing).  Within a degree, entries come in order of first
    appearance as a prefix of an item, which fixes the order the kernel's
    products sum in.  The build goes degree by degree: the key of a
    degree-d prefix is (its parent's id) * n + (its last variable), and one
    stable sort of the keys numbers the degree's entries.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=np.int64)
        T, n = A.shape
        rows, cols = A.nonzero()
        counts = A[rows, cols]
        chains = cols.repeat(counts)  # chain_vars(A)
        deg = A.sum(axis=1)
        # the chain of alpha - e_i is alpha's without its last i, which sits
        # at counts.cumsum() - 1 in chains
        length = deg[rows]
        shift = (deg.cumsum() - deg)[rows] - (length.cumsum() - length)
        at = np.arange(length.sum()) + shift.repeat(length)  # the rows' chains, once per i
        flat = np.concatenate([chains, chains[at[at != (counts.cumsum() - 1).repeat(length)]]])
        deg = np.concatenate([deg, length - 1])
        N = len(deg)  # the items: T support rows, then each alpha - e_i
        ends = np.bincount(deg, minlength=1).tolist()  # items ending at each degree
        act = np.arange(N)  # the items of degree >= d, in item order
        pos = deg.cumsum() - deg  # where each one's variable d - 1 sits in flat
        ids = np.zeros(N, dtype=np.int64)  # its degree-(d-1) prefix, within its degree
        keys, firsts = [np.zeros(1, dtype=np.int64)], [np.full(1, -1)]
        last = np.empty(N, dtype=np.int64)  # each item's entry, in key order
        base = 0  # entries of the degrees below d - 1
        for d in range(1, len(ends)):
            if ends[d - 1]:
                end = deg[act] == d - 1
                last[act[end]] = base + ids[end]
                act, pos, ids = act[~end], pos[~end], ids[~end]
            key = ids * n + flat[pos]
            pos += 1
            o = key.argsort(kind="stable")  # equal keys keep item order
            k = key[o]
            new = k != np.concatenate([[-1], k[:-1]])
            ids[o] = new.cumsum() - 1
            base += len(keys[-1])
            keys.append(k[new])
            firsts.append(act[o[new]])
        last[act] = base + ids
        # key order -> entry order: by degree, then by first appearance
        count = [len(k) for k in keys]
        degree = np.arange(len(keys)).repeat(count)
        perm = (degree * (N + 1) + np.concatenate(firsts)).argsort()
        entry = np.empty_like(perm)
        entry[perm] = np.arange(len(perm))
        key = np.concatenate(keys)
        offset = np.concatenate([[0], np.cumsum(count)])
        parent = entry[np.where(degree > 0, offset[degree - 1] + key // n, 0)][perm]
        offset = offset.tolist()
        self.n = n
        self.size = len(key)
        self.var = (key % n)[perm]
        # degree-1 entries are the coordinates themselves
        self.levels = [(lo, hi, parent[lo:hi]) for lo, hi in zip(offset[2:-1], offset[3:])]
        self.support = entry[last[:T]]
        # (entry of alpha - e_i, support row of alpha, i) for alpha_i > 0
        self.lower = entry[last[T:]], rows, cols

    def powers(self, Z: np.ndarray, size: int | None = None) -> np.ndarray:
        """z^beta for every point z (row of Z) and every entry beta below
        size (all entries when None), shape (R, size).  An entry's parent
        comes before it, so the first entries need no later ones.  Zero
        coordinates are exact: nothing is divided."""
        M = _columns(Z, self.var[:size])
        M[:, 0] = 1
        step = max(1, GATHER_ENTRIES // max(len(M), 1))
        for lo, hi, par in self.levels:
            hi = min(hi, M.shape[1])
            for a in range(lo, hi, step):  # the gathered parents stay small
                b = min(a + step, hi)
                block = M[:, a:b]  # a view: *= writes into M
                block *= _columns(M, par[a - lo:b - lo])
        return M

    def at_support(self, M: np.ndarray) -> np.ndarray:
        """The support's columns of a power table M, shape (R, T): a view of
        M when the support is one run of table entries (a whole index set
        is), not a second array."""
        sup = self.support
        if sup.size and (sup == np.arange(sup[0], sup[0] + sup.size)).all():
            return M[:, sup[0]:sup[0] + sup.size]
        return M[:, sup]


def _columns(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """X[:, idx] in the layout that indexing gives it (column-major, so
    products with it round the same), gathered by take, which costs less
    per call."""
    return X.T.take(idx, axis=0).T


def monomials(Z: np.ndarray, A: np.ndarray, table: MonomialTable | None = None) -> np.ndarray:
    """z^alpha for every point z (row of Z) and every row alpha of A, shape
    (points, terms): MonomialTable.at_support of the power table of table,
    A's compiled table (built here when not given)."""
    table = MonomialTable(A) if table is None else table
    return table.at_support(table.powers(Z))


class PolyBatch:
    """K polynomials on one support, compiled for the kernel once, when built:
    exponents A (T, n), coefficients C (K, T) and cf (K, size) over the
    monomial table's entries, and the derivative tensor D (K, len(rows), n),
    D[j, k, i] the coefficient of entry rows[k] in dP_j/dz_i.  table is A's
    MonomialTable, compiled here when not given.  The rows of A must be
    distinct (a ValueError otherwise): then each coefficient, and each
    (entry of alpha - e_i, i), has an entry of its own.

    When every row has one degree m >= 1, m is that degree and prefix is
    the number of table entries of degree < m (the T rows are the last
    entries); otherwise m is None and prefix is the table size.  cols is
    rows as a slice when they are one run of entries (every full index
    set is), so the kernel reads them without a copy."""

    def __init__(self, A: np.ndarray, C: np.ndarray, table: MonomialTable | None = None):
        self.A, self.C = A, C
        self.table = table = MonomialTable(A) if table is None else table
        if np.bincount(table.support).max(initial=0) > 1:
            raise ValueError("the support has a repeated row")
        idx, terms, var = table.lower
        hit = np.zeros(table.size, dtype=bool)
        hit[idx] = True
        self.rows = hit.nonzero()[0]  # the entries of every alpha - e_i, ascending
        k = hit.cumsum()[idx] - 1
        self.cf = np.zeros((len(C), table.size), dtype=np.complex128)
        self.cf[:, table.support] = C
        self.D = np.zeros((len(C), self.rows.size, table.n), dtype=np.complex128)
        self.D[:, k, var] = C[:, terms] * A[terms, var]
        deg = np.sum(A, axis=1)
        self.m = int(deg[0]) if deg.size and deg[0] >= 1 and (deg == deg[0]).all() else None
        self.prefix = table.size - (len(A) if self.m else 0)
        rows = self.rows  # ascending, no repeats: one run when it spans its size
        run = rows.size > 0 and rows[-1] - rows[0] + 1 == rows.size
        self.cols = slice(int(rows[0]), int(rows[-1]) + 1) if run else rows

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
    polynomial takes one slice of M per run, and one run is one product.
    Each run's product goes straight into its rows of one result array,
    so no run's product is held twice."""
    if len(runs) == 1:
        return M @ c[runs[0][2]]
    out = np.empty((len(M),) + c.shape[2:], dtype=np.result_type(M, c))
    for a, b, k in runs:
        np.matmul(M[a:b], c[k], out=out[a:b])
    return out


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

    A support of one degree m >= 1 needs no entry of degree m: the gradients
    read only the entries below it, and Euler's identity
    m P(z) = sum_i z_i dP/dz_i gives the values, point by point.
    """
    M = F.table.powers(Z, F.prefix)
    runs = _runs(own, len(M))  # found once, shared by values and gradients
    rows = M[:, F.cols] if isinstance(F.cols, slice) else _columns(M, F.cols)
    grads = _by_owner(rows, F.D, runs)
    if F.m:
        return np.vecdot(np.conj(Z), grads) / F.m, grads
    return _by_owner(M, F.cf, runs), grads


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
    alphas = list(enumerate_lambda(m, n))
    for alpha in alphas:
        if alpha not in signs:
            raise ValueError(f"missing sign for {alpha}")
        s = signs[alpha]
        if s not in (1, -1):
            raise ValueError(f"sign for {alpha} must be +-1, got {s}")
    if len(alphas) != len(signs):
        raise ValueError("signs defined outside the index set")
    mults = multiplicities(np.array(alphas, dtype=np.int64).reshape(len(alphas), n))
    return HomPoly(n, m, {a: signs[a] * c for a, c in zip(alphas, mults.tolist())})


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
