"""Facts every family owns or implies: its value semantics, its oracle
table, its cumulative lengths past the interpolation nodes, and the symmetry
of its slice polynomial."""

from fractions import Fraction

import pytest

from detmult import Family, GenericParams, MultiplicityReport, PfaffianParams, build_report, slice_polynomial
from oracles import grassmannian_hilbert_function, spinor_hilbert_function

GENERIC = [Family.generic(m, n) for m in range(1, 8) for n in range(1, m + 1)]


def label(family: Family) -> str:
    return family.label


def test_equal_families_are_equal_and_hash_alike():
    assert GenericParams(5, 3) == Family.generic(5, 3)
    assert hash(GenericParams(5, 3)) == hash(Family.generic(5, 3))
    assert PfaffianParams(2) == Family.pfaffian(2)
    assert hash(PfaffianParams(2)) == hash(Family.pfaffian(2))
    # the tracer and verify key dicts and sets by families
    assert len({GenericParams(5, 3), Family.generic(5, 3), PfaffianParams(2), Family.pfaffian(2)}) == 2
    assert {Family.generic(4, 3): "report"}[GenericParams(4, 3)] == "report"


def test_families_differ_across_parameters_and_classes():
    assert GenericParams(5, 3) != GenericParams(5, 2)
    assert GenericParams(5, 3) != GenericParams(6, 3)
    assert PfaffianParams(2) != PfaffianParams(3)
    assert GenericParams(2, 2) != PfaffianParams(2)
    assert GenericParams(1, 1) != PfaffianParams(1)
    assert GenericParams(5, 3) != (5, 3)


def test_family_reprs():
    assert repr(GenericParams(5, 3)) == "GenericParams(m=5, n=3)"
    assert repr(PfaffianParams(2)) == "PfaffianParams(n=2)"


def test_families_refuse_attribute_assignment():
    generic, pfaffian = GenericParams(5, 3), PfaffianParams(2)
    with pytest.raises(AttributeError):
        generic.m = 6
    with pytest.raises(AttributeError):
        pfaffian.n = 3
    with pytest.raises(AttributeError):
        generic.extra = 1
    with pytest.raises(AttributeError):
        del pfaffian.n
    assert (generic.m, generic.n, pfaffian.n) == (5, 3, 2)


def test_invalid_parameters_are_refused():
    with pytest.raises(ValueError, match=r"^GenericParams requires m >= n >= 1, got m=2, n=3$"):
        GenericParams(2, 3)
    with pytest.raises(ValueError, match=r"^GenericParams requires m >= n >= 1, got m=0, n=0$"):
        GenericParams(0, 0)
    with pytest.raises(ValueError, match=r"^PfaffianParams requires n >= 1, got 0$"):
        PfaffianParams(0)


def test_label_and_parameters():
    assert GenericParams(5, 3).label == "generic-maximal-minors(m=5, n=3)"
    assert PfaffianParams(2).label == "sub-maximal-pfaffians(n=2)"
    assert GenericParams(12, 4).parameters == {"family": "generic-maximal-minors", "m": "12", "n": "4"}
    assert PfaffianParams(7).parameters == {"family": "sub-maximal-pfaffians", "n": "7"}
    # a fresh dict each time: the CLI adds its own keys to it
    family = PfaffianParams(3)
    family.parameters["mode"] = "slice"
    assert family.parameters == {"family": "sub-maximal-pfaffians", "n": "3"}


def test_multiplicity_report_fields():
    family = Family.generic(4, 3)
    report = build_report(family)
    assert report.family == family
    assert report.slice_polynomial == slice_polynomial(family)
    assert report.j_multiplicity == report.epsilon_multiplicity == Fraction(462)
    assert sorted(report.oracles) == ["closed_form", "grassmannian_degree", "selberg_integral", "tableaux_count"]
    assert report.all_agree
    disagreeing = MultiplicityReport(
        family=family,
        slice_polynomial=report.slice_polynomial,
        j_multiplicity=report.j_multiplicity,
        epsilon_multiplicity=report.epsilon_multiplicity,
        oracles={**report.oracles, "selberg_integral": Fraction(461)},
    )
    assert not disagreeing.all_agree
    assert MultiplicityReport(family, report.slice_polynomial, Fraction(1), Fraction(1), {}).all_agree


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
