import pytest
from hypothesis import given, settings, strategies as st

from detmult.arith import interpolate
from detmult.maximal_minors import LengthClassification
from detmult.partitions import weakly_decreasing_tuples
from detmult.pfaffians import (
    PfaffianParams,
    cumulative_length,
    length_classification,
    local_cohomology_index,
    nonvanishing_degrees,
    slice_length,
    slice_weight,
)
from oracles import count_monomials

P1 = PfaffianParams(1)
P2 = PfaffianParams(2)
P3 = PfaffianParams(3)

# slice lengths for n = 2, d = 1..8
SLICES_2 = [0, 0, 1, 15, 110, 546, 2100, 6732]
# slice lengths for n = 3, d = 4..8
SLICES_3 = [0, 1, 63, 1652, 25740]


def test_params_validation():
    with pytest.raises(ValueError):
        PfaffianParams(0)


def test_derived_indices():
    assert P2.size == 5
    assert P2.ring_dimension == 10
    assert P2.finite_ext_degree == 5
    assert P2.finite_cohomology_degree == 5
    assert P2.first_finite_power == 3
    assert P3.ring_dimension == 21
    assert P3.finite_cohomology_degree == 14


def test_nonvanishing_degrees_examples():
    for d in range(1, 6):
        assert nonvanishing_degrees(P1, d) == {3}
    assert nonvanishing_degrees(P2, 3) == {3, 5}
    assert nonvanishing_degrees(P2, 2) == {3}


def test_degrees_are_odd_and_bounded():
    for n in range(1, 5):
        params = PfaffianParams(n)
        for d in range(1, 10):
            degrees = nonvanishing_degrees(params, d)
            assert degrees
            assert all(j % 2 == 1 and 3 <= j <= 2 * n + 1 for j in degrees)


def test_top_degree_needs_large_power():
    for n in range(1, 5):
        params = PfaffianParams(n)
        for d in range(1, params.first_finite_power):
            assert params.finite_ext_degree not in nonvanishing_degrees(params, d)
        assert params.finite_ext_degree in nonvanishing_degrees(params, params.first_finite_power)


def test_classification_examples():
    assert length_classification(P2, 5, 3) is LengthClassification.FINITE_NONZERO
    assert length_classification(P2, 3, 3) is LengthClassification.INFINITE
    assert length_classification(P2, 4, 3) is LengthClassification.ZERO


def test_slice_weight_shape():
    w = slice_weight(P3, 6, (1, 0))
    assert w == (7, 7, 7, 7, 6, 6, 6)
    assert slice_weight(P1, 4, ()) == (5, 5, 2)


def test_slice_weight_validation():
    with pytest.raises(ValueError):
        slice_weight(P2, 5, ())  # wrong length
    with pytest.raises(ValueError):
        slice_weight(P2, 5, (4,))  # exceeds d + 1 - 2n
    with pytest.raises(ValueError):
        slice_weight(P3, 9, (0, 1))  # not weakly decreasing


def test_slice_weights_doubled_and_dominant():
    for n in range(1, 5):
        params = PfaffianParams(n)
        for d in range(params.first_finite_power, params.first_finite_power + 3):
            for eps in weakly_decreasing_tuples(n - 1, d + 1 - 2 * n):
                w = slice_weight(params, d, eps)
                assert len(w) == 2 * n + 1
                assert all(a >= b for a, b in zip(w, w[1:]))
                assert all(w[2 * i] == w[2 * i + 1] for i in range(n))


def test_slice_length_triangular_for_n1():
    # the ideal of all entries of a 3 x 3 skew matrix has 3 generators, so the
    # slice counts monomials of degree d-1 in 3 variables
    for d in range(1, 11):
        assert slice_length(P1, d) == d * (d + 1) // 2
        if d <= 8:
            assert slice_length(P1, d) == count_monomials(3, d - 1)


def test_slice_length_examples():
    assert slice_length(P2, 3) == 1
    assert slice_length(P2, 2) == 0


def test_slice_length_frozen_values():
    assert [slice_length(P2, d) for d in range(1, 9)] == SLICES_2
    assert [slice_length(P3, d) for d in range(4, 9)] == SLICES_3


def test_slice_length_exterior_powers_of_c5():
    # d = 4, n = 2: the two summands are the second and fourth exterior powers
    assert slice_length(P2, 4) == 10 + 5


def test_cumulative_length_examples():
    assert cumulative_length(P2, 3) == 1
    assert cumulative_length(P1, 3) == 10
    assert cumulative_length(P2, 2) == 0


def test_telescoping():
    for n in range(1, 4):
        params = PfaffianParams(n)
        for d in range(2, 11):
            assert slice_length(params, d) == cumulative_length(params, d) - cumulative_length(
                params, d - 1
            )


def test_vanishing_floor():
    for n in range(1, 5):
        params = PfaffianParams(n)
        for d in range(1, params.first_finite_power):
            assert slice_length(params, d) == 0
        assert slice_length(params, params.first_finite_power) == 1


def test_polynomiality():
    for n in (1, 2):
        params = PfaffianParams(n)
        k = params.ring_dimension
        d0 = params.first_finite_power
        nodes = [(d, slice_length(params, d)) for d in range(d0, d0 + k)]
        poly = interpolate(nodes)
        assert poly.degree == k - 1
        for d in (d0 + k, d0 + k + 1):
            assert poly(d) == slice_length(params, d)


def test_local_cohomology_index():
    assert local_cohomology_index(P2, 5) == 5
    assert local_cohomology_index(P3, 7) == 14
    assert local_cohomology_index(P2, 0) == 10
    with pytest.raises(ValueError):
        local_cohomology_index(P2, 11)


def test_jobs_is_accepted_and_changes_nothing():
    assert slice_length(P2, 10, jobs=2) == slice_length(P2, 10)


def test_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        slice_length(P2, 0)
    with pytest.raises(ValueError):
        nonvanishing_degrees(P2, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slice_length_matches_enumeration(n):
    params = PfaffianParams(n)
    first = params.first_finite_power
    for d in range(first, first + 12):
        assert slice_length(params, d) == params.reference_slice_length(d), d


@st.composite
def pfaffian_nodes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=2 * n + 8))
    return PfaffianParams(n), d


@settings(max_examples=40, deadline=None)
@given(pfaffian_nodes())
def test_slice_length_matches_enumeration_property(node):
    params, d = node
    assert slice_length(params, d) == params.reference_slice_length(d)


def test_reference_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        P2.reference_slice_length(0)
