"""Exact arithmetic kernel.

Arbitrary-precision integers and rationals (``int`` / ``fractions.Fraction``),
factorials, Bernoulli numbers, Faulhaber power-sum polynomials, range
summation of polynomials and exact Newton interpolation.  No floating point
appears anywhere; every operation is exact.
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
    "factorial",
    "faulhaber_polynomial",
    "interpolate",
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
