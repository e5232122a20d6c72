import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.errors import BudgetExceededError
from bohrlab.multiindex import (
    alpha_to_tuple,
    complement_card_bound,
    derived_set,
    enumerate_j,
    enumerate_lambda,
    enumerate_lambda_k,
    is_k_bounded,
    lambda_card,
    multiplicity,
    partition_shapes,
    tuple_to_alpha,
)


def test_lambda_card_values():
    assert lambda_card(2, 3) == 6
    assert lambda_card(0, 5) == 1
    assert lambda_card(5, 4) == 56
    assert lambda_card(5, 4) == sum(1 for _ in enumerate_lambda(5, 4))


def test_enumerate_lambda_small_sets():
    assert set(enumerate_lambda(1, 2)) == {(1, 0), (0, 1)}
    assert set(enumerate_lambda(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert sum(1 for _ in enumerate_lambda(6, 6)) == 462


def test_enumerate_lambda_colex_order_and_restartable():
    stream = lambda: list(enumerate_lambda(2, 3))
    first = stream()
    assert first == stream()  # fresh iterator, same order
    # colexicographic: last coordinate ascends slowest-changing first
    assert first[0] == (2, 0, 0)
    assert first[-1] == (0, 0, 2)
    assert len(set(first)) == len(first)
    for m, n in [(3, 4), (4, 3), (0, 3), (5, 1)]:
        items = list(enumerate_lambda(m, n))
        assert items == sorted(items, key=lambda a: a[::-1])


def test_enumerate_j_small_sets():
    assert set(enumerate_j(2, 2)) == {(1, 1), (1, 2), (2, 2)}
    assert set(enumerate_j(1, 3)) == {(1,), (2,), (3,)}
    assert sum(1 for _ in enumerate_j(3, 4)) == 20
    js = list(enumerate_j(2, 3))
    assert js == sorted(js)  # lexicographic


def test_conversions():
    assert tuple_to_alpha((1, 1, 2), 2) == (2, 1)
    assert alpha_to_tuple((0, 3)) == (2, 2, 2)
    for j in enumerate_j(4, 3):
        assert alpha_to_tuple(tuple_to_alpha(j, 3)) == j


def test_conversion_validation():
    with pytest.raises(ValueError):
        tuple_to_alpha((1, 3), 2)  # entry out of range
    with pytest.raises(ValueError):
        tuple_to_alpha((2, 1), 3)  # not nondecreasing


def test_multiplicity():
    assert multiplicity((2, 1)) == 3
    assert multiplicity((5, 0, 0)) == 1
    assert multiplicity((1, 1, 1, 1)) == 24


def test_multinomial_identity_exact():
    for n in range(1, 9):
        for m in range(0, 9):
            assert sum(multiplicity(a) for a in enumerate_lambda(m, n)) == n**m


def test_stream_lengths_match_card():
    for n in range(1, 9):
        for m in range(0, 9):
            assert sum(1 for _ in enumerate_lambda(m, n)) == lambda_card(m, n)


def test_k_bounded():
    assert not is_k_bounded((2, 1), 1)
    assert set(enumerate_lambda_k(2, 2, 1)) == {(1, 1)}
    assert set(enumerate_lambda_k(3, 2, 2)) == {(2, 1), (1, 2)}


def test_k_bounded_partitions_lambda():
    for m, n, k in [(4, 3, 2), (5, 2, 3), (3, 4, 1)]:
        full = set(enumerate_lambda(m, n))
        bounded = set(enumerate_lambda_k(m, n, k))
        assert bounded == {a for a in full if is_k_bounded(a, k)}
        assert bounded <= full


def test_multiplicity_floor_on_k_bounded():
    # for a k-bounded alpha of degree m: m!/alpha! >= m!/k!^ceil(m/k)
    for m in range(2, 7):
        for n in range(2, 6):
            for k in range(1, m + 1):
                lhs_scale = math.factorial(k) ** math.ceil(m / k)
                for a in enumerate_lambda_k(m, n, k):
                    assert multiplicity(a) * lhs_scale >= math.factorial(m)


def test_complement_card_bound_values():
    assert complement_card_bound(4, 3, 1) == 9
    assert complement_card_bound(3, 2, 1) == 2
    with pytest.raises(ValueError):
        complement_card_bound(2, 3, 1)


def test_complement_card_bound_dominates_exact():
    for m in range(2, 9):
        for n in range(1, 7):
            for k in range(1, m - 1):
                if m - k - 2 < 0:
                    continue
                exact = sum(
                    1
                    for j in enumerate_j(m - 1, n)
                    if not is_k_bounded(tuple_to_alpha(j, n), k)
                )
                assert exact <= complement_card_bound(m, n, k)


def test_derived_set():
    assert derived_set({(1, 2)}) == {(1,)}
    assert derived_set(set(enumerate_j(2, 2))) == set(enumerate_j(1, 2))
    assert derived_set({(2, 2)}) == {(2,)}
    assert derived_set(set()) == set()


def test_partition_shapes():
    shapes = {s.parts: s.arrangements for s in partition_shapes(2, 2)}
    assert shapes == {(2,): 2, (1, 1): 1}
    shapes1 = {s.parts: s.arrangements for s in partition_shapes(3, 1)}
    assert shapes1 == {(3,): 1}
    assert sum(s.arrangements for s in partition_shapes(5, 4)) == 56


def test_partition_shapes_reproduce_enumeration_stats():
    for m, n in [(4, 3), (5, 2), (6, 4)]:
        by_shape = {}
        for a in enumerate_lambda(m, n):
            key = tuple(sorted((x for x in a if x), reverse=True))
            by_shape[key] = by_shape.get(key, 0) + 1
        assert by_shape == {s.parts: s.arrangements for s in partition_shapes(m, n)}


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        list(enumerate_lambda(3, 3, budget=5))


@given(st.integers(0, 7), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_property_card_and_roundtrip(m, n):
    items = list(enumerate_lambda(m, n))
    assert len(items) == lambda_card(m, n)
    assert len(set(items)) == len(items)
    for a in items[:20]:
        assert tuple_to_alpha(alpha_to_tuple(a) or (), n) == a if m else a == (0,) * n


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_property_multiplicity_divides(alpha):
    a = tuple(alpha)
    m = sum(a)
    mult = multiplicity(a)
    prod = mult
    for x in a:
        prod *= math.factorial(x)
    assert prod == math.factorial(m)
