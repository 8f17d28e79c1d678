"""Exact arithmetic kernel.

Arbitrary-precision integers and rationals (``int`` / ``fractions.Fraction``),
factorials, Bernoulli numbers, Faulhaber power-sum polynomials, range
summation of polynomials, exact Newton interpolation, and fraction-free
determinants and Pfaffians of integer matrices.  No floating point appears
anywhere; every operation is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "ConsistencyError",
    "RationalPolynomial",
    "bernoulli",
    "determinant",
    "exact_quotient",
    "factorial",
    "faulhaber_polynomial",
    "interpolate",
    "pfaffian",
    "poly_range_sum",
]


class ConsistencyError(RuntimeError):
    """An exact computation produced a value that its own invariants rule out.

    Raised when an interpolated slice polynomial fails its held-out
    validation or a quotient that must be an integer is not one.  It signals
    a bug upstream; the wrong value is never returned silently.
    """


@cache
def factorial(k: int) -> int:
    """k! as an exact integer.

    Results are memoized; the cache only grows and never changes a published
    value, so concurrent callers always observe the pure-function behavior.
    """
    if k < 0:
        raise ValueError(f"factorial requires k >= 0, got {k}")
    return math.factorial(k)


@cache
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with the convention B_1 = +1/2.

    Defined by the recurrence sum_{i=0}^{k} C(k+1, i) * B_i = k + 1, which
    fixes the positive sign of B_1.  Odd-index values beyond B_1 vanish.
    """
    if k < 0:
        raise ValueError(f"bernoulli requires k >= 0, got {k}")
    acc = Fraction(k + 1)
    for i in range(k):
        acc -= comb(k + 1, i) * bernoulli(i)
    return acc / (k + 1)


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by power with trailing zeros stripped,
    so the zero polynomial has no coefficients and degree -1, and a nonzero
    polynomial always has a nonzero leading coefficient.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Rational] = ()) -> None:
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: Rational) -> "RationalPolynomial":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coefficients)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial | Rational") -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(c * other for c in self.coefficients)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(out)

    def __rmul__(self, other: Rational) -> "RationalPolynomial":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __repr__(self) -> str:
        if not self.coefficients:
            return "RationalPolynomial(0)"
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if c == 0:
                continue
            if power == 0:
                terms.append(str(c))
            elif power == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{power}")
        return "RationalPolynomial(" + " + ".join(terms) + ")"


def faulhaber_polynomial(p: int) -> RationalPolynomial:
    """Polynomial F of degree p+1 with F(b) = 1^p + 2^p + ... + b^p.

    Coefficient of x^(p+1-j) is C(p+1, j) * B_j / (p+1) in the B_1 = +1/2
    convention; the leading coefficient is exactly 1/(p+1) and F(0) = 0.
    """
    if p < 0:
        raise ValueError(f"faulhaber_polynomial requires p >= 0, got {p}")
    coeffs = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        coeffs[p + 1 - j] = Fraction(comb(p + 1, j), p + 1) * bernoulli(j)
    return RationalPolynomial(coeffs)


def poly_range_sum(f: RationalPolynomial, a: int) -> RationalPolynomial:
    """Polynomial F with F(b) = sum_{k=a}^{b} f(k) for every integer b >= a.

    Built from Faulhaber polynomials, so deg F = deg f + 1 and the leading
    coefficient of F is lead(f) / (deg f + 1).  The identity
    F(b) - F(b-1) = f(b) holds for all integers, so negative values of a are
    handled exactly as well.
    """
    total = RationalPolynomial.zero()
    for power, c in enumerate(f.coefficients):
        total = total + c * faulhaber_polynomial(power)
    return total - RationalPolynomial.constant(total(a - 1))


def interpolate(points: Sequence[tuple[int, Rational]]) -> RationalPolynomial:
    """Unique polynomial of degree < len(points) through the given points.

    Uses exact Newton divided differences over the rationals.  Abscissae must
    be pairwise distinct.
    """
    if not points:
        raise ValueError("interpolate requires at least one point")
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolate requires pairwise distinct abscissae")
    coefs = [Fraction(y) for _, y in points]
    npts = len(points)
    for level in range(1, npts):
        for i in range(npts - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form back to monomial coefficients.
    poly = RationalPolynomial.constant(coefs[-1])
    for k in range(npts - 2, -1, -1):
        poly = poly * RationalPolynomial((-xs[k], 1)) + RationalPolynomial.constant(coefs[k])
    return poly


def exact_quotient(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator for a division known to be exact.

    A remainder means an upstream bug and raises ConsistencyError, also under
    ``python -O``.
    """
    q, r = divmod(numerator, denominator)
    if r:
        raise ConsistencyError(f"{what}: {numerator}/{denominator} is not an integer")
    return q


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: after step k every remaining entry is a (k+1) x (k+1) minor,
    so the division by the previous pivot is exact (Sylvester's identity).  A
    zero pivot is replaced by the first lower row with a nonzero entry in its
    column, flipping the sign; if there is none the determinant is 0.  The
    empty matrix has determinant 1.
    """
    a = [list(row) for row in matrix]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("determinant requires a square matrix")
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = exact_quotient(pivot * row[j] - lead * top[j], prev, "Bareiss step")
        prev = pivot
    return sign * a[-1][-1] if size else 1


def pfaffian(matrix: Sequence[Sequence[int]]) -> int:
    """Pfaffian of a skew-symmetric integer matrix by skew Schur-complement elimination.

    Each step eliminates the leading pair of indices (k, k+1) against the
    pivot a[k][k+1].  Kept fraction-free, the entry (i, j) after the step is
    the Pfaffian of the principal submatrix on {0, ..., k+1, i, j}, so the
    division by the previous pivot is exact (the Pfaffian form of Sylvester's
    identity), and the last pivot is the Pfaffian itself.  A zero pivot is
    replaced by swapping index k+1 with the first later index j having
    a[k][j] != 0, which flips the sign; if there is none the Pfaffian is 0.
    Odd sizes give 0 and the empty matrix gives 1.
    """
    a = [list(row) for row in matrix]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("pfaffian requires a square matrix")
    if any(a[i][j] != -a[j][i] for i in range(size) for j in range(i, size)):
        raise ValueError("pfaffian requires a skew-symmetric matrix")
    if size % 2:
        return 0
    sign, prev = 1, 1
    for k in range(0, size, 2):
        if a[k][k + 1] == 0:
            swap = next((j for j in range(k + 2, size) if a[k][j]), None)
            if swap is None:
                return 0
            a[k + 1], a[swap] = a[swap], a[k + 1]
            for row in a:
                row[k + 1], row[swap] = row[swap], row[k + 1]
            sign = -sign
        pivot, first, second = a[k][k + 1], a[k], a[k + 1]
        for i in range(k + 2, size):
            for j in range(i + 1, size):
                step = pivot * a[i][j] - first[i] * second[j] + first[j] * second[i]
                a[i][j] = exact_quotient(step, prev, "Pfaffian step")
                a[j][i] = -a[i][j]
        prev = pivot
    return sign * prev
