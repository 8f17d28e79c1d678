from fractions import Fraction
from math import comb

import pytest

import detmult.maximal_minors
from detmult.arith import RationalPolynomial, factorial, poly_range_sum
from detmult.maximal_minors import GenericParams
from detmult.multiplicities import (
    ConsistencyError,
    Family,
    build_report,
    closed_form_generic,
    closed_form_pfaffian,
    epsilon_multiplicity,
    grassmannian_degree,
    integral_formula_generic,
    integral_formula_pfaffian,
    j_multiplicity,
    orthogonal_grassmannian_degree,
    selberg_integral,
    shifted_tableaux_staircase,
    slice_polynomial,
    standard_tableaux_rectangle,
)
from detmult.pfaffians import PfaffianParams
from oracles import count_shifted_syt, count_syt, selberg_dim1_beta, selberg_dim2_beta


def test_family_construction():
    family = Family.generic(4, 3)
    assert family.ring_dimension == 12
    assert family.first_finite_power == 3
    assert family.finite_cohomology_degree == 8
    pf = Family.pfaffian(2)
    assert pf.ring_dimension == 10
    assert pf.first_finite_power == 3
    assert isinstance(family, GenericParams) and isinstance(pf, PfaffianParams)
    with pytest.raises(ValueError):
        Family.generic(2, 3)


def test_closed_form_generic_values():
    assert closed_form_generic(3, 2) == 5
    assert closed_form_generic(4, 3) == 462
    assert closed_form_generic(5, 3) == 6006
    assert closed_form_generic(2, 1) == 1
    assert closed_form_generic(2, 2) == 2
    assert closed_form_generic(3, 3) == 42


def test_closed_form_generic_catalan_column():
    for m in range(2, 9):
        assert closed_form_generic(m, 2) == comb(2 * m, m) // (m + 1)


def test_grassmannian_degree_values():
    for m in range(1, 7):
        assert grassmannian_degree(1, m + 1) == 1  # projective space
    assert grassmannian_degree(2, 5) == 5
    assert grassmannian_degree(3, 7) == 462
    assert grassmannian_degree(2, 4) == 2  # the quadric surface in P^5


def test_grassmannian_degree_duality():
    for b in range(2, 9):
        for a in range(1, b):
            assert grassmannian_degree(a, b) == grassmannian_degree(b - a, b)


def test_grassmannian_degree_matches_closed_form():
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert grassmannian_degree(n, m + n) == closed_form_generic(m, n)


def test_grassmannian_degree_validation():
    with pytest.raises(ValueError):
        grassmannian_degree(0, 3)
    with pytest.raises(ValueError):
        grassmannian_degree(3, 3)


def test_closed_form_pfaffian_values():
    assert closed_form_pfaffian(1) == 1
    assert closed_form_pfaffian(2) == 12
    assert closed_form_pfaffian(3) == 33592
    assert closed_form_pfaffian(4) == 108995910720


def test_orthogonal_grassmannian_degree_values():
    assert [orthogonal_grassmannian_degree(a) for a in range(1, 7)] == [1, 1, 2, 12, 286, 33592]


def test_orthogonal_grassmannian_matches_pfaffian_closed_form():
    for n in range(1, 5):
        assert orthogonal_grassmannian_degree(2 * n) == closed_form_pfaffian(n)


def test_standard_tableaux_rectangle_values():
    assert standard_tableaux_rectangle(2, 2) == 2
    assert standard_tableaux_rectangle(3, 2) == 5
    assert standard_tableaux_rectangle(1, 1) == 1


def test_standard_tableaux_rectangle_against_enumeration():
    for m in range(1, 5):
        for n in range(1, 4):
            assert standard_tableaux_rectangle(m, n) == count_syt((n,) * m)


def test_standard_tableaux_rectangle_matches_closed_form():
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert standard_tableaux_rectangle(m, n) == closed_form_generic(m, n)


def test_shifted_tableaux_staircase_values():
    assert shifted_tableaux_staircase(1) == 1
    assert shifted_tableaux_staircase(2) == 1
    assert shifted_tableaux_staircase(4) == 12


def test_shifted_tableaux_staircase_against_enumeration():
    for a in range(1, 6):
        assert shifted_tableaux_staircase(a) == count_shifted_syt(tuple(range(a, 0, -1)))


def test_shifted_tableaux_matches_orthogonal_grassmannian():
    for a in range(1, 9):
        assert shifted_tableaux_staircase(a) == orthogonal_grassmannian_degree(a)


def test_selberg_spot_values():
    assert selberg_integral(1, 3, 2, 1) == Fraction(1, 12)
    assert selberg_integral(1, 3, 5, 2) == Fraction(1, 105)
    for m in range(3, 7):
        assert selberg_integral(1, 3, m - 1, 1) == Fraction(2, m**3 - m)


def test_selberg_against_beta_integrals():
    for a in range(1, 5):
        for b in range(1, 5):
            assert selberg_integral(1, a, b, 1) == selberg_dim1_beta(a, b)
            assert selberg_integral(2, a, b, 1) == selberg_dim2_beta(a, b)


def test_selberg_validation():
    with pytest.raises(ValueError):
        selberg_integral(0, 3, 2, 1)
    with pytest.raises(ValueError):
        selberg_integral(1, 3, 0, 1)
    with pytest.raises(ValueError):
        selberg_integral(1, 3, 2, -1)


def test_integral_formula_generic_values():
    assert integral_formula_generic(3, 2) == 5
    assert integral_formula_generic(4, 3) == 462
    assert integral_formula_generic(2, 1) == 1


def test_integral_formula_pfaffian_values():
    assert integral_formula_pfaffian(1) == 1
    assert integral_formula_pfaffian(2) == 12
    assert integral_formula_pfaffian(3) == closed_form_pfaffian(3)


def test_slice_polynomial_generic_32():
    poly = slice_polynomial(Family.generic(3, 2))
    assert poly.degree == 5
    assert poly.leading_coefficient == Fraction(1, 24)
    # slice(d) = (d^5 - d^3) / 24
    assert poly == RationalPolynomial((0, 0, 0, Fraction(-1, 24), 0, Fraction(1, 24)))


def test_slice_polynomial_pfaffian_1():
    poly = slice_polynomial(Family.pfaffian(1))
    assert poly == RationalPolynomial((0, Fraction(1, 2), Fraction(1, 2)))


def test_slice_polynomial_generic_21():
    assert slice_polynomial(Family.generic(2, 1)) == RationalPolynomial((0, 1))


def test_j_multiplicity_values():
    assert j_multiplicity(Family.generic(3, 2)) == 5
    assert j_multiplicity(Family.generic(4, 3)) == 462
    assert j_multiplicity(Family.pfaffian(2)) == 12


def test_epsilon_multiplicity_values():
    assert epsilon_multiplicity(Family.generic(3, 2)) == 5
    assert epsilon_multiplicity(Family.generic(5, 3)) == 6006
    assert epsilon_multiplicity(Family.pfaffian(1)) == 1


def test_epsilon_equals_j_by_leading_coefficient_law():
    for family in [Family.generic(3, 2), Family.generic(2, 2), Family.pfaffian(2)]:
        poly = slice_polynomial(family)
        summed = poly_range_sum(poly, family.first_finite_power)
        k = family.ring_dimension
        assert factorial(k) * summed.leading_coefficient == factorial(k - 1) * poly.leading_coefficient
        assert epsilon_multiplicity(family) == j_multiplicity(family)


def test_build_report_generic_32():
    report = build_report(Family.generic(3, 2))
    values = {report.j_multiplicity, report.epsilon_multiplicity, *report.oracles.values()}
    assert values == {Fraction(5)}
    assert report.all_agree
    assert report.family.finite_cohomology_degree == 3
    assert set(report.oracles) == {
        "closed_form",
        "grassmannian_degree",
        "tableaux_count",
        "selberg_integral",
    }


def test_build_report_pfaffian_2():
    report = build_report(Family.pfaffian(2))
    assert report.j_multiplicity == 12
    assert report.all_agree
    assert set(report.oracles) == {
        "closed_form",
        "orthogonal_grassmannian_degree",
        "tableaux_count",
        "selberg_integral",
    }


def test_build_report_generic_53():
    report = build_report(Family.generic(5, 3))
    assert report.j_multiplicity == 6006
    assert report.epsilon_multiplicity == 6006
    assert report.all_agree


def test_multiplicities_are_integral():
    for family in [
        Family.generic(2, 1),
        Family.generic(3, 2),
        Family.generic(4, 2),
        Family.generic(2, 2),
        Family.pfaffian(1),
        Family.pfaffian(2),
    ]:
        value = j_multiplicity(family)
        assert value.denominator == 1
        assert value >= 1


def test_catalan_family():
    for m in range(2, 9):
        assert j_multiplicity(Family.generic(m, 2)) == Fraction(comb(2 * m, m), m + 1)


def test_oracle_agreement_generic_range():
    for m in range(2, 7):
        for n in range(1, min(m, 4)):
            report = build_report(Family.generic(m, n))
            assert report.all_agree, report.family.label
            assert report.epsilon_multiplicity == report.j_multiplicity


def test_oracle_agreement_pfaffian_range():
    for n in range(1, 4):
        report = build_report(Family.pfaffian(n))
        assert report.all_agree, report.family.label
        assert report.epsilon_multiplicity == report.j_multiplicity


def test_consistency_error_on_perturbed_enumeration(monkeypatch):
    real = detmult.maximal_minors.slice_length
    family = Family.generic(3, 2)
    bad_node = family.first_finite_power + family.ring_dimension  # first held-out node

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if d == bad_node else value

    monkeypatch.setattr(detmult.maximal_minors, "slice_length", perturbed)
    with pytest.raises(ConsistencyError):
        slice_polynomial(family)
