from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from detmult.arith import (
    ConsistencyError,
    RationalPolynomial,
    bernoulli,
    determinant,
    exact_quotient,
    factorial,
    faulhaber_polynomial,
    interpolate,
    pfaffian,
    poly_range_sum,
)
from oracles import determinant_by_permutations, direct_power_sum, pfaffian_by_expansion

X = RationalPolynomial((0, 1))


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800


def test_factorial_negative_rejected():
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_repeated_calls_are_stable():
    assert factorial(25) == factorial(25)


# Hand-solved from sum_{i=0}^{k} C(k+1, i) B_i = k + 1 for k <= 4.
BERNOULLI_HAND = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
}


@pytest.mark.parametrize("k,value", sorted(BERNOULLI_HAND.items()))
def test_bernoulli_small_values(k, value):
    assert bernoulli(k) == value


def test_bernoulli_further_values():
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)


def test_bernoulli_odd_vanishing():
    for k in range(3, 21, 2):
        assert bernoulli(k) == 0


def test_bernoulli_negative_rejected():
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_faulhaber_p0_is_identity():
    assert faulhaber_polynomial(0) == X


def test_faulhaber_p1():
    assert faulhaber_polynomial(1) == RationalPolynomial((0, Fraction(1, 2), Fraction(1, 2)))


def test_faulhaber_p2_at_4():
    assert faulhaber_polynomial(2)(4) == 30


def test_faulhaber_leading_coefficient():
    for p in range(0, 9):
        poly = faulhaber_polynomial(p)
        assert poly.degree == p + 1
        assert poly.leading_coefficient == Fraction(1, p + 1)


def test_faulhaber_matches_direct_sums():
    for p in range(0, 9):
        poly = faulhaber_polynomial(p)
        for b in range(0, 51):
            assert poly(b) == direct_power_sum(p, b)


def test_range_sum_square():
    assert poly_range_sum(X * X, 1)(4) == 30


def test_range_sum_constant_counts_integers():
    one = RationalPolynomial.constant(1)
    assert poly_range_sum(one, 3)(7) == 5


def test_range_sum_identity_from_zero():
    assert poly_range_sum(X, 0) == RationalPolynomial((0, Fraction(1, 2), Fraction(1, 2)))


def test_range_sum_negative_start():
    summed = poly_range_sum(X, -3)
    assert summed(2) == sum(range(-3, 3))
    assert summed(-3) == -3


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(small_fractions, min_size=1, max_size=7),
    a=st.integers(min_value=-10, max_value=10),
    width=st.integers(min_value=0, max_value=30),
)
def test_range_sum_matches_termwise(coeffs, a, width):
    poly = RationalPolynomial(coeffs)
    summed = poly_range_sum(poly, a)
    b = a + width
    assert summed(b) == sum(poly(k) for k in range(a, b + 1))
    if poly:
        assert summed.degree == poly.degree + 1
        assert summed.leading_coefficient == poly.leading_coefficient / (poly.degree + 1)


def test_interpolate_square():
    assert interpolate([(0, 0), (1, 1), (2, 4)]) == X * X


def test_interpolate_single_point():
    assert interpolate([(5, 7)]) == RationalPolynomial.constant(7)


def test_interpolate_cubic_data():
    expected = X * X + RationalPolynomial.constant(1)
    assert interpolate([(0, 1), (1, 2), (2, 5), (3, 10)]) == expected


def test_interpolate_duplicate_abscissae_rejected():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


def test_interpolate_empty_rejected():
    with pytest.raises(ValueError):
        interpolate([])


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(small_fractions, min_size=1, max_size=11))
def test_interpolate_inverts_sampling(coeffs):
    poly = RationalPolynomial(coeffs)
    nodes = [(x, poly(x)) for x in range(poly.degree + 1)] or [(0, poly(0))]
    assert interpolate(nodes) == poly


def test_polynomial_trailing_zeros_stripped():
    assert RationalPolynomial((1, 2, 0, 0)).coefficients == (Fraction(1), Fraction(2))


def test_zero_polynomial():
    zero = RationalPolynomial.zero()
    assert zero.degree == -1
    assert zero.leading_coefficient == 0
    assert not zero
    assert zero(17) == 0


def test_polynomial_arithmetic_evaluates_consistently():
    p = RationalPolynomial((1, Fraction(1, 2), 3))
    q = RationalPolynomial((0, -2, 0, 1))
    for x in range(-4, 5):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (3 * p)(x) == 3 * p(x)


def test_polynomial_equality_and_hash():
    assert RationalPolynomial((0, 1)) == X
    assert hash(RationalPolynomial((0, 1))) == hash(X)
    assert RationalPolynomial((0, 1)) != RationalPolynomial((0, 2))


def test_concurrent_callers_see_pure_function_results():
    # memoization must never change observable values under concurrency
    from concurrent.futures import ThreadPoolExecutor

    def work(seed):
        return (
            factorial(150 + seed % 3),
            bernoulli(24 + 2 * (seed % 4)),
            faulhaber_polynomial(6 + seed % 3)(seed),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    for seed, triple in enumerate(results):
        assert triple == work(seed)


# Entries drawn mostly from {-1, 0, 1} so that zero pivots, and with them the
# row and index swaps, occur often.
small_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])


@st.composite
def square_matrices(draw, max_size=5):
    size = draw(st.integers(min_value=0, max_value=max_size))
    return [[draw(small_entries) for _ in range(size)] for _ in range(size)]


@st.composite
def skew_matrices(draw, max_size=6):
    size = draw(st.integers(min_value=0, max_value=max_size))
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            a[i][j] = draw(small_entries)
            a[j][i] = -a[i][j]
    return a


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_determinant_matches_permutation_expansion(matrix):
    assert determinant(matrix) == determinant_by_permutations(matrix)


@settings(max_examples=150, deadline=None)
@given(skew_matrices())
def test_pfaffian_matches_expansion_and_squares_to_determinant(matrix):
    value = pfaffian(matrix)
    assert value == pfaffian_by_expansion(matrix)
    assert value**2 == determinant(matrix)


def test_determinant_and_pfaffian_examples():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert determinant([[0, 2], [0, 3]]) == 0
    assert pfaffian([]) == 1
    assert pfaffian([[0, 4], [-4, 0]]) == 4
    assert pfaffian([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]) == 0
    # a_01 = 0: the pivot comes from index 2, so Pf = -a_02 a_13 = -6
    assert pfaffian([[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]]) == -6


def test_determinant_and_pfaffian_reject_bad_shapes():
    with pytest.raises(ValueError):
        determinant([[1, 2]])
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        pfaffian([[0, 1, 2], [-1, 0, 3]])


def test_exact_quotient():
    assert exact_quotient(-12, 4, "demo") == -3
    with pytest.raises(ConsistencyError, match="demo: 7/2 is not an integer"):
        exact_quotient(7, 2, "demo")
