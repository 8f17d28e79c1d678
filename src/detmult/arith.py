"""Exact arithmetic kernel.

Arbitrary-precision integers and rationals (``int`` / ``fractions.Fraction``),
factorials, Bernoulli numbers, Faulhaber power-sum polynomials, range
summation of polynomials, exact Newton interpolation, weighted power sums
and fraction-free determinants of integer matrices.  No floating point
appears anywhere; every operation is exact.

There is no Pfaffian routine: for skew-symmetric A, Cayley's identity
det A = Pf(A)^2 gives |Pf(A)| = isqrt(det A), all that the pfaffian slice
kernel needs, since the length it computes is nonnegative.

``RationalPolynomial`` is a plain value; the algorithms that build
polynomials work on coefficient lists.  ``exact_quotient`` is the one
integrality check, shared by the elimination, the slice kernels,
``weyl_dimension`` and the integer oracles.
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
    "poly_range_sum",
    "power_sums",
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
    """Dense univariate polynomial with exact rational coefficients, as a value.

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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1] if self.coefficients else Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        """The value at an int or Fraction x, exactly; any other type is a TypeError.

        With L the lcm of the coefficient denominators and x = p/q in lowest
        terms, the value is the sum of the integers L*c_i * p^i * q^(deg-i),
        taken by Horner's rule, over L * q^deg.  The one division (and its one
        gcd) comes at the end.
        """
        if isinstance(x, int):
            p, q = x, 1
        elif isinstance(x, Fraction):
            p, q = x.numerator, x.denominator
        else:
            raise TypeError(f"RationalPolynomial evaluates at int or Fraction, got {type(x).__name__}")
        ratios = [c.as_integer_ratio() for c in reversed(self.coefficients)]
        scale = math.lcm(*[den for _, den in ratios])
        acc, q_power = 0, 1
        for num, den in ratios:
            acc = acc * p + num * (scale // den) * q_power
            q_power *= q
        return Fraction(acc, scale * q ** max(self.degree, 0))

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
            c = self.coefficients[power]
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
    total = [Fraction(0)] * (len(f.coefficients) + 1)
    for power, c in enumerate(f.coefficients):
        for i, t in enumerate(faulhaber_polynomial(power).coefficients):
            total[i] += c * t
    total[0] -= RationalPolynomial(total)(a - 1)
    return RationalPolynomial(total)


def interpolate(points: Sequence[tuple[Rational, Rational]]) -> RationalPolynomial:
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
    # Horner expansion of the Newton form: multiply by (x - xs[k]), add coefs[k].
    poly = [coefs[-1]]
    for k in range(npts - 2, -1, -1):
        poly.append(poly[-1])
        for i in range(len(poly) - 2, 0, -1):
            poly[i] = poly[i - 1] - xs[k] * poly[i]
        poly[0] = coefs[k] - xs[k] * poly[0]
    return RationalPolynomial(poly)


def power_sums(points: Iterable[tuple[int, int]], count: int) -> list[int]:
    """[sum of w * x^r over the (x, w) points for r < count]; count <= 0 reads no point."""
    if count <= 0:
        return []
    sums = [0] * count
    for x, w in points:
        for r in range(count):
            sums[r] += w
            w *= x
    return sums


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

