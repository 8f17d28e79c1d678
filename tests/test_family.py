"""Facts every family owns or implies: its oracle table, its cumulative
lengths past the interpolation nodes, and the symmetry of its slice
polynomial."""

from fractions import Fraction

import pytest

from detmult import Family, GenericParams, slice_polynomial
from oracles import grassmannian_hilbert_function, spinor_hilbert_function

GENERIC = [Family.generic(m, n) for m in range(1, 8) for n in range(1, m + 1)]


def label(family: Family) -> str:
    return family.label


def test_oracle_tables():
    assert Family.generic(4, 3).oracles() == dict.fromkeys(
        ["closed_form", "grassmannian_degree", "tableaux_count", "selberg_integral"], Fraction(462)
    )
    assert Family.pfaffian(2).oracles() == dict.fromkeys(
        ["closed_form", "orthogonal_grassmannian_degree", "tableaux_count", "selberg_integral"], Fraction(12)
    )


# Every D up to 45 lies past the interpolation nodes d0 .. d0+k+1 of all but
# the largest families, so a kernel that is wrong at a single power beyond
# them fails here although held-out validation passes.
@pytest.mark.parametrize("family", GENERIC + [Family.pfaffian(n) for n in range(1, 6)], ids=label)
def test_cumulative_length_is_the_hilbert_function(family):
    for D in range(1, 46):
        if isinstance(family, GenericParams):
            expected = grassmannian_hilbert_function(family.m, family.n, D)
        else:
            expected = spinor_hilbert_function(family.n, D)
        assert family.cumulative_length(D) == expected, D


# Gorenstein symmetry of the Hilbert functions: s(c - d) = (-1)^(k-1) s(d)
# with c = n - m + 1 for maximal minors and c = -1 for pfaffians.  A kernel
# error that is itself a polynomial in d survives held-out validation and
# can keep the oracles in agreement, but breaks this symmetry.
@pytest.mark.parametrize("family", GENERIC + [Family.pfaffian(n) for n in range(1, 5)], ids=label)
def test_slice_polynomial_functional_equation(family):
    c = family.n - family.m + 1 if isinstance(family, GenericParams) else -1
    s = slice_polynomial(family)
    sign = (-1) ** (family.ring_dimension - 1)
    for d in range(-30, 31):
        assert s(c - d) == sign * s(d), d
