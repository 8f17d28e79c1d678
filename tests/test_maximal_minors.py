from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from detmult.arith import interpolate
from detmult.family import LengthClassification
from detmult.maximal_minors import GenericParams, cumulative_length, slice_length
from oracles import count_monomials, generic_degrees_by_search

M32 = GenericParams(3, 2)
M43 = GenericParams(4, 3)
M53 = GenericParams(5, 3)

# slice lengths for the 3 x 2 family, d = 1..8
SLICES_32 = [0, 1, 9, 40, 125, 315, 686, 1344]
# slice lengths for the 4 x 3 family, d = 3..6
SLICES_43 = [1, 34, 455, 3626]


def test_params_validation():
    with pytest.raises(ValueError):
        GenericParams(2, 3)
    with pytest.raises(ValueError):
        GenericParams(1, 0)
    square = GenericParams(2, 2)  # allowed; classification refuses it below
    assert square.ring_dimension == 4


def test_derived_indices():
    assert M43.ring_dimension == 12
    assert M43.finite_ext_degree == 4
    assert M43.finite_cohomology_degree == 8
    assert M43.first_finite_power == 3
    assert M32.finite_ext_degree == 3
    assert M32.finite_cohomology_degree == 3


def test_nonvanishing_degrees_examples():
    assert M43.nonvanishing_degrees(3) == {2, 3, 4}
    assert M53.nonvanishing_degrees(3) == {3, 5, 7}
    assert 3 not in M32.nonvanishing_degrees(1)
    assert M32.nonvanishing_degrees(1) == {2}


def test_nonvanishing_degrees_structure():
    for m in range(2, 14):
        for n in range(1, m):
            params = GenericParams(m, n)
            top = params.finite_ext_degree
            for d in range(1, 31):
                degrees = params.nonvanishing_degrees(d)
                assert degrees == generic_degrees_by_search(m, n, d), (m, n, d)
                assert all((1 - j) % (m - n) == 0 for j in degrees)
                assert all(2 <= j <= top for j in degrees)
                if d >= n:
                    assert degrees == {j for j in range(2, top + 1) if (1 - j) % (m - n) == 0}


def test_nonvanishing_degrees_square_rejected():
    for d in (3, 1, 0, -2):
        with pytest.raises(ValueError, match="^cohomological degree classification requires m > n$"):
            GenericParams(2, 2).nonvanishing_degrees(d)


def test_classification_examples():
    assert M43.length_classification(4, 3) is LengthClassification.FINITE_NONZERO
    assert M43.length_classification(3, 3) is LengthClassification.INFINITE
    assert M32.length_classification(3, 1) is LengthClassification.ZERO
    assert M43.length_classification(5, 3) is LengthClassification.ZERO


def test_classification_finite_only_at_top_degree():
    for params in (M32, M43, M53):
        for d in range(1, 7):
            for j in range(0, params.finite_ext_degree + 2):
                cls = params.length_classification(j, d)
                if cls is LengthClassification.FINITE_NONZERO:
                    assert j == params.finite_ext_degree and d >= params.n


def test_slice_length_examples():
    assert slice_length(M32, 2) == 1
    assert slice_length(M32, 3) == 9
    assert slice_length(M32, 1) == 0


def test_slice_length_frozen_values():
    assert [slice_length(M32, d) for d in range(1, 9)] == SLICES_32
    assert [slice_length(M43, d) for d in range(3, 7)] == SLICES_43


def test_slice_length_square_family():
    # m = n = 2: sum of squared dimensions (e+1)^2 for e = 0..d-2
    for d in range(2, 8):
        assert slice_length(GenericParams(2, 2), d) == sum(
            (e + 1) ** 2 for e in range(d - 1)
        )


def test_slice_length_variable_ideal():
    # n = 1 is the ideal of all matrix entries; the slice counts monomials
    for m in range(2, 5):
        params = GenericParams(m, 1)
        for d in range(1, 7):
            assert slice_length(params, d) == count_monomials(m, d - 1)
            assert slice_length(params, d) == comb(d + m - 2, m - 1)


def test_cumulative_length_examples():
    assert cumulative_length(M32, 2) == 1
    assert cumulative_length(M32, 3) == 10
    assert cumulative_length(M32, 1) == 0


def test_telescoping():
    for m in range(2, 7):
        for n in range(1, min(m, 4)):
            params = GenericParams(m, n)
            for d in range(2, 9):
                assert slice_length(params, d) == cumulative_length(params, d) - cumulative_length(
                    params, d - 1
                )


def test_vanishing_floor():
    for m in range(2, 7):
        for n in range(1, min(m, 4)):
            params = GenericParams(m, n)
            for d in range(1, n):
                assert slice_length(params, d) == 0
            assert slice_length(params, n) == 1


def test_monotonicity():
    for params in (M32, M43, M53, GenericParams(6, 2)):
        values = [slice_length(params, d) for d in range(params.n, params.n + 9)]
        assert values == sorted(values)


def test_polynomiality():
    # degree mn-1 polynomial through the first mn values also matches the next two
    for m, n in [(2, 1), (3, 1), (3, 2), (2, 2), (4, 3)]:
        params = GenericParams(m, n)
        k = params.ring_dimension
        d0 = params.first_finite_power
        nodes = [(d, slice_length(params, d)) for d in range(d0, d0 + k)]
        poly = interpolate(nodes)
        assert poly.degree == k - 1
        for d in (d0 + k, d0 + k + 1):
            assert poly(d) == slice_length(params, d)


def test_local_cohomology_index():
    assert M43.local_cohomology_index(4) == 8
    assert M32.local_cohomology_index(3) == 3
    assert M32.local_cohomology_index(0) == 6
    with pytest.raises(ValueError):
        M32.local_cohomology_index(7)
    with pytest.raises(ValueError):
        M32.local_cohomology_index(-1)


def test_jobs_is_accepted_and_changes_nothing():
    assert slice_length(M32, 9, jobs=2) == slice_length(M32, 9)


def test_slice_length_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        slice_length(M32, 0)
    with pytest.raises(ValueError):
        cumulative_length(M32, 0)


# Shapes on which the moment kernel is checked against the tuple enumeration
# at every power from d = 1 to twelve past the first finite one, so the zeros
# below it come from the formula too; (7, 7) is square.
PARITY_SHAPES = [(3, 2), (5, 3), (8, 4), (6, 5), (7, 7)] + [(m, 1) for m in range(1, 9)]


@pytest.mark.parametrize("m,n", PARITY_SHAPES)
def test_slice_length_matches_enumeration(m, n):
    params = GenericParams(m, n)
    for d in range(1, n + 12):
        assert slice_length(params, d) == params.reference_slice_length(d), d


@st.composite
def generic_nodes(draw):
    m = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=m))
    d = draw(st.integers(min_value=1, max_value=n + 8))
    return GenericParams(m, n), d


@settings(max_examples=60, deadline=None)
@given(generic_nodes())
def test_slice_length_matches_enumeration_property(node):
    params, d = node
    assert slice_length(params, d) == params.reference_slice_length(d)


def test_reference_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        M32.reference_slice_length(0)
