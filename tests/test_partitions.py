from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from detmult.partitions import (
    LayerIndex,
    box_partitions,
    conjugate,
    contained_in,
    is_layer_index,
    layer_level,
    maximal_minor_layers,
    normalize,
    part,
    power_ideal_layers,
    truncate,
    weakly_decreasing_tuples,
)
from oracles import is_layer_index_by_diagrams

partition_st = st.lists(st.integers(min_value=0, max_value=6), max_size=6).map(
    lambda parts: normalize(sorted(parts, reverse=True))
)


def test_normalize_strips_trailing_zeros():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    assert normalize((0, 0)) == ()


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


def test_part_is_one_indexed_with_zero_padding():
    assert part((3, 1), 1) == 3
    assert part((3, 1), 2) == 1
    assert part((3, 1), 5) == 0


def test_conjugate_examples():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_counts_columns():
    x = (4, 2, 1)
    for i in range(1, 6):
        assert part(conjugate(x), i) == sum(1 for p in x if p >= i)


@settings(max_examples=80, deadline=None)
@given(partition_st)
def test_conjugate_involution(x):
    assert conjugate(conjugate(x)) == x


def test_truncate_examples():
    assert truncate((5, 3, 1), 2) == (2, 2, 1)
    assert truncate((5, 3, 1), 0) == ()
    assert truncate((2, 2), 9) == (2, 2)


@settings(max_examples=60, deadline=None)
@given(partition_st, st.integers(min_value=0, max_value=8))
def test_truncate_bounds(x, c):
    t = truncate(x, c)
    assert contained_in(t, x)
    assert all(p <= c for p in t)


def test_contained_in_pads_with_zeros():
    assert contained_in((1, 1), (2, 1, 1))
    assert not contained_in((1, 1, 1), (1, 1))


def test_weakly_decreasing_tuples_count():
    # choosing a weakly decreasing tuple is choosing a multiset
    for length in range(0, 4):
        for bound in range(0, 5):
            tuples = list(weakly_decreasing_tuples(length, bound))
            assert len(tuples) == comb(bound + length, length)
            assert len(set(tuples)) == len(tuples)
            for t in tuples:
                assert all(a >= b for a, b in zip(t, t[1:]))


def test_weakly_decreasing_tuples_negative_bound():
    assert list(weakly_decreasing_tuples(2, -1)) == []
    assert list(weakly_decreasing_tuples(0, -1)) == [()]


def test_weakly_decreasing_tuples_order_matches_brute_force():
    for length in range(0, 5):
        for bound in range(-2, 9):
            reference = sorted(
                (
                    t
                    for t in product(range(bound + 1), repeat=length)
                    if all(t[i] >= t[i + 1] for i in range(length - 1))
                ),
                reverse=True,
            )
            assert list(weakly_decreasing_tuples(length, bound)) == reference


def test_weakly_decreasing_tuples_negative_length():
    with pytest.raises(ValueError):
        weakly_decreasing_tuples(-1, 3)


def test_box_partitions_power_family():
    assert box_partitions(4, 2, 2) == [(2, 2)]
    assert set(box_partitions(3, 3, 3)) == {(3,), (2, 1), (1, 1, 1)}


def test_is_layer_index_examples():
    family = box_partitions(4, 2, 2)  # the single partition (2, 2)
    assert is_layer_index(family, (1, 1), 1) is True
    assert is_layer_index(family, (1, 1), 0) is False
    assert is_layer_index([(1,)], (), 0) is True


def test_is_layer_index_empty_family_rejected():
    with pytest.raises(ValueError):
        is_layer_index([], (1,), 0)


def test_is_layer_index_negative_level_rejected():
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        is_layer_index([(1,)], (1,), -1)


def test_is_layer_index_checks_the_family_before_the_level():
    with pytest.raises(ValueError, match="nonempty family"):
        is_layer_index([], (1,), -1)


def test_layer_level_examples():
    family = box_partitions(4, 2, 2)  # the single partition (2, 2)
    assert layer_level(family, (1, 1)) == 1
    assert layer_level(family, ()) == 1  # c = 0: every member qualifies
    assert layer_level(family, (1,)) == -1  # (1, 1) does not fit under (1,)
    assert layer_level(family, (2, 2)) == -1  # no column past width 2
    assert layer_level([(1,)], ()) == 0


def test_layer_level_empty_family_rejected():
    with pytest.raises(ValueError, match="nonempty family"):
        layer_level([], (1,))


def test_layer_level_matches_diagram_reference_at_every_level():
    # the shapes of test_is_layer_index_matches_diagram_reference: the
    # reference accepts (z, level) exactly at level = layer_level(z), if that
    # level is >= 0
    points = 0
    for n in range(1, 6):
        for p in range(1, n + 1):
            for d in range(1, 7):
                family = box_partitions(p * d, n, d)
                for z in weakly_decreasing_tuples(n, d):
                    found = layer_level(family, z)
                    assert -1 <= found <= n - 1, (n, p, d, z, found)
                    accepted = [lv for lv in range(n + 1) if is_layer_index_by_diagrams(family, z, lv)]
                    assert accepted == ([found] if found >= 0 else []), (n, p, d, z, found)
                    points += 1
    assert points == 7_279


def test_is_layer_index_matches_diagram_reference():
    # every n <= 5, p <= n, d <= 6, partition z with at most n parts and
    # z_1 <= d, and level <= n (one past the largest level that can qualify)
    points = 0
    for n in range(1, 6):
        for p in range(1, n + 1):
            for d in range(1, 7):
                family = box_partitions(p * d, n, d)
                for z in weakly_decreasing_tuples(n, d):
                    for level in range(n + 1):
                        want = is_layer_index_by_diagrams(family, z, level)
                        assert is_layer_index(family, z, level) is want, (n, p, d, z, level)
                        points += 1
    assert points == 39_970


def test_maximal_minor_layers_examples():
    assert maximal_minor_layers(2, 2) == [LayerIndex((), 1), LayerIndex((1, 1), 1)]
    assert maximal_minor_layers(1, 3) == [
        LayerIndex((), 0),
        LayerIndex((1,), 0),
        LayerIndex((2,), 0),
    ]
    assert maximal_minor_layers(3, 1) == [LayerIndex((), 2)]


def test_power_ideal_layers_examples():
    assert set(power_ideal_layers(2, 2, 2)) == set(maximal_minor_layers(2, 2))
    assert all(level == 0 for _, level in power_ideal_layers(2, 1, 3))
    assert set(power_ideal_layers(1, 1, 2)) == {LayerIndex((), 0), LayerIndex((1,), 0)}


def test_power_ideal_layers_validation():
    with pytest.raises(ValueError):
        power_ideal_layers(2, 3, 2)
    with pytest.raises(ValueError):
        power_ideal_layers(2, 1, 0)


def test_layer_levels_have_equal_leading_parts():
    for n in range(1, 5):
        for p in range(1, n + 1):
            for d in range(1, 5):
                for z, level in power_ideal_layers(n, p, d):
                    first = part(z, 1)
                    assert all(part(z, i) == first for i in range(1, level + 2))


def test_definition_matches_closed_form():
    # membership computed from the two-clause definition against the
    # closed-form enumeration, over every family with n <= 4, p <= n, d <= 5
    for n in range(1, 5):
        for p in range(1, n + 1):
            for d in range(1, 6):
                family = box_partitions(p * d, n, d)
                assert family
                via_definition = set()
                for level in range(n):
                    for z1 in range(d):
                        for rest in weakly_decreasing_tuples(n - 1, z1):
                            z = normalize((z1,) + rest)
                            if is_layer_index(family, z, level):
                                via_definition.add(LayerIndex(z, level))
                assert via_definition == set(power_ideal_layers(n, p, d)), (n, p, d)


def test_no_members_at_largest_part_equal_to_power():
    # candidates with leading part d never qualify, so the d-1 bound is tight
    for n in range(1, 4):
        for p in range(1, n + 1):
            for d in range(1, 5):
                family = box_partitions(p * d, n, d)
                for level in range(n):
                    for rest in weakly_decreasing_tuples(n - 1, d):
                        z = normalize((d,) + rest)
                        assert not is_layer_index(family, z, level)


def test_closed_form_specializes_to_maximal_minors():
    for n in range(1, 5):
        for d in range(1, 7):
            assert set(power_ideal_layers(n, n, d)) == set(maximal_minor_layers(n, d))
