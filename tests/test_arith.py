from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from detmult.arith import (
    ConsistencyError,
    RationalPolynomial,
    bernoulli,
    determinant,
    exact_quotient,
    factorial,
    faulhaber_polynomial,
    interpolate,
    poly_range_sum,
    power_sums,
)
from oracles import (
    determinant_by_permutations,
    direct_power_sum,
    horner_reference,
    lagrange_coefficients,
    pfaffian_by_expansion,
)

X = RationalPolynomial((0, 1))
X_SQUARED = RationalPolynomial((0, 0, 1))


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
    assert poly_range_sum(X_SQUARED, 1)(4) == 30


def test_range_sum_constant_counts_integers():
    one = RationalPolynomial((1,))
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
    assert interpolate([(0, 0), (1, 1), (2, 4)]) == X_SQUARED


def test_interpolate_single_point():
    assert interpolate([(5, 7)]) == RationalPolynomial((7,))


def test_interpolate_cubic_data():
    expected = RationalPolynomial((1, 0, 1))
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


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=7), small_fractions),
        min_size=1,
        max_size=9,
        unique_by=lambda point: point[0],
    )
)
def test_interpolate_matches_lagrange_basis(points):
    # abscissae are distinct but otherwise arbitrary: negative, fractional, unordered
    poly = interpolate(points)
    assert poly.coefficients == lagrange_coefficients(points)
    assert all(poly(x) == y for x, y in points)


def test_polynomial_trailing_zeros_stripped():
    assert RationalPolynomial((1, 2, 0, 0)).coefficients == (Fraction(1), Fraction(2))


def test_zero_polynomial():
    zero = RationalPolynomial()
    assert zero.degree == -1
    assert zero.leading_coefficient == 0
    assert not zero
    assert zero(17) == 0


def test_polynomial_equality_and_hash():
    assert RationalPolynomial((0, 1)) == X
    assert hash(RationalPolynomial((0, 1))) == hash(X)
    assert RationalPolynomial((0, 1)) != RationalPolynomial((0, 2))


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.fractions(max_denominator=10**6), max_size=12),
    x=st.one_of(st.integers(min_value=-10**6, max_value=10**6), st.fractions(max_denominator=10**4)),
)
@example(coeffs=[], x=7)  # the zero polynomial
@example(coeffs=[], x=Fraction(-2, 3))
@example(coeffs=[Fraction(0), Fraction(0)], x=Fraction(5, 4))
@example(coeffs=[Fraction(-7, 3)], x=-4)  # a constant
@example(coeffs=[Fraction(5, 2)], x=Fraction(-1, 9))
@example(coeffs=[Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)], x=-5)
@example(coeffs=[Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)], x=Fraction(-3, 10))
def test_evaluation_matches_fraction_horner(coeffs, x):
    value = RationalPolynomial(coeffs)(x)
    assert type(value) is Fraction
    assert value == horner_reference(coeffs, x)


@pytest.mark.parametrize("x", [0.5, 2.0, Decimal("0.5"), "2", 1j])
@pytest.mark.parametrize("coeffs", [(), (3,), (1, Fraction(1, 2))])
def test_evaluation_accepts_only_int_and_fraction(coeffs, x):
    # a float argument once gave a float back, silently leaving exact arithmetic
    with pytest.raises(TypeError, match="int or Fraction"):
        RationalPolynomial(coeffs)(x)


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
def test_skew_determinant_is_the_square_of_the_pfaffian(matrix):
    # Cayley's identity, which the pfaffian slice kernel relies on; the zero
    # diagonal makes Bareiss swap rows at every step
    assert determinant(matrix) == pfaffian_by_expansion(matrix) ** 2


def test_determinant_examples():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert determinant([[0, 2], [0, 3]]) == 0


def test_determinant_rejects_bad_shapes():
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_exact_quotient():
    assert exact_quotient(-12, 4, "demo") == -3
    with pytest.raises(ConsistencyError, match="demo: 7/2 is not an integer"):
        exact_quotient(7, 2, "demo")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-(10**6), 10**6)), max_size=8),
    st.integers(min_value=-2, max_value=7),
)
def test_power_sums_match_the_double_sum(points, count):
    expected = [sum(w * x**r for x, w in points) for r in range(count)]
    assert power_sums(points, count) == expected


def test_power_sums_read_no_point_when_no_moment_is_asked():
    def points():
        raise AssertionError("a point was read")
        yield

    for count in (0, -1):
        assert power_sums(points(), count) == []
    with pytest.raises(AssertionError):
        power_sums(points(), 1)
