"""Enumeration, exact counting and conversions for monomial index sets.

Two equivalent labellings of the degree-m monomials in n variables are
used throughout:

* a multi-index ``alpha``: a tuple of n non-negative integers summing to m,
* an index tuple ``j``: a nondecreasing tuple of m integers in 1..n.

``tuple_to_alpha`` / ``alpha_to_tuple`` convert between the two (the
occurrence-count bijection).  All counting here is exact big-integer
arithmetic; floats never enter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError

MultiIndex = tuple[int, ...]
IndexTuple = tuple[int, ...]

DEFAULT_STREAM_BUDGET = 10**8


def validate_alpha(alpha: MultiIndex, m: int | None = None, n: int | None = None) -> None:
    """Check that alpha is a valid multi-index: integer entries, none negative
    (optionally of degree m, length n)."""
    try:
        low = min(map(operator.index, alpha), default=0)
    except TypeError:
        raise ValueError(f"multi-index has a non-integer entry: {alpha}") from None
    if low < 0:
        raise ValueError(f"multi-index has negative entry: {alpha}")
    if n is not None and len(alpha) != n:
        raise ValueError(f"multi-index length {len(alpha)} != n={n}")
    if m is not None and sum(alpha) != m:
        raise ValueError(f"multi-index degree {sum(alpha)} != m={m}")


def validate_tuple(j: IndexTuple, n: int) -> None:
    """Check that j is nondecreasing with entries in 1..n."""
    if any(not (1 <= v <= n) for v in j):
        raise ValueError(f"index tuple entries out of 1..{n}: {j}")
    if any(j[i] > j[i + 1] for i in range(len(j) - 1)):
        raise ValueError(f"index tuple not nondecreasing: {j}")


def lambda_card(m: int, n: int) -> int:
    """Exact cardinality of the degree-m multi-index set in n variables."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    return math.comb(n + m - 1, m)


def _budgeted(it: Iterator, budget: int) -> Iterator:
    seen = 0
    for item in it:
        seen += 1
        if seen > budget:
            raise BudgetExceededError(f"enumeration exceeded budget of {budget} items")
        yield item


def enumerate_lambda(m: int, n: int, budget: int = DEFAULT_STREAM_BUDGET) -> Iterator[MultiIndex]:
    """Yield every multi-index of degree m in n variables, colexicographic order.

    The stream is restartable (call again for a fresh iterator) and uses
    O(n) memory.
    """
    return enumerate_lambda_k(m, n, max(m, 1), budget)


def enumerate_j(m: int, n: int, budget: int = DEFAULT_STREAM_BUDGET) -> Iterator[IndexTuple]:
    """Yield every nondecreasing m-tuple with entries in 1..n, lexicographic order."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    return _budgeted(itertools.combinations_with_replacement(range(1, n + 1), m), budget)


def tuple_to_alpha(j: IndexTuple, n: int) -> MultiIndex:
    """Occurrence counts of each variable index: alpha_i = #{k : j_k = i}."""
    validate_tuple(j, n)
    counts = [0] * n
    for v in j:
        counts[v - 1] += 1
    return tuple(counts)


def alpha_to_tuple(alpha: MultiIndex) -> IndexTuple:
    """Inverse of tuple_to_alpha: emit index i repeated alpha_i times."""
    validate_alpha(alpha)
    out: list[int] = []
    for i, a in enumerate(alpha, start=1):
        out.extend([i] * a)
    return tuple(out)


def multiplicity(alpha: MultiIndex) -> int:
    """Number of arrangements m!/alpha! of the index tuple matching alpha (exact)."""
    validate_alpha(alpha)
    m = sum(alpha)
    result = math.factorial(m)
    for a in alpha:
        result //= math.factorial(a)
    return result


def is_k_bounded(alpha: MultiIndex, k: int) -> bool:
    """True when every exponent of alpha is at most k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    return all(a <= k for a in alpha)


def enumerate_lambda_k(
    m: int, n: int, k: int, budget: int = DEFAULT_STREAM_BUDGET
) -> Iterator[MultiIndex]:
    """Yield the k-bounded multi-indices of degree m (all exponents <= k), in
    the colexicographic order of enumerate_lambda, using O(n) memory."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")

    def colex() -> Iterator[MultiIndex]:
        # successor: empty the leading block (first nonzero entry and the k's
        # after it), add 1 to the next entry, refill from entry 0 up, k each
        if m > n * k:
            return
        alpha = ([k] * (m // k) + [m % k] + [0] * n)[:n]
        first = 0 if m else n - 1  # index of the first nonzero entry
        while True:
            yield tuple(alpha)
            i, r = first + 1, alpha[first] - 1
            alpha[first] = 0
            while i < n and alpha[i] == k:
                alpha[i] = 0
                i, r = i + 1, r + k
            if i == n:
                return
            alpha[i] += 1
            q = r // k
            if q:
                alpha[:q] = [k] * q
            alpha[q] = r - q * k
            first = 0 if r else i

    return _budgeted(colex(), budget)


@dataclass(frozen=True)
class PartitionShape:
    """An integer partition of m (nonincreasing positive parts) together with
    the exact number of degree-m multi-indices in n variables whose positive
    entries form this multiset."""

    parts: tuple[int, ...]
    arrangements: int


def _arrangements(parts: tuple[int, ...], n: int) -> int:
    # n!/((n-l)! * prod over distinct part values v of count(v)!),
    # with the quotient as a falling factorial so huge n stays cheap
    ell = len(parts)
    result = math.prod(range(n - ell + 1, n + 1))
    for v in set(parts):
        result //= math.factorial(parts.count(v))
    return result


def partition_shapes(m: int, n: int) -> Iterator[PartitionShape]:
    """Yield each integer partition of m with at most n parts, once, with its
    exact arrangement count.  Arrangement counts sum to lambda_card(m, n)."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")

    def rec(remaining: int, max_part: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if len(prefix) == n:
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    for parts in rec(m, m if m else 1, []):
        yield PartitionShape(parts, _arrangements(parts, n))
