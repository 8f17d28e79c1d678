"""Multiplicity extraction and its independent closed-form oracles.

The two multiplicities attached to a family (ring dimension k, first finite
power d0) are read off the slice-length polynomial:

    j-multiplicity       = (k-1)! * leading coefficient of the slice polynomial
    epsilon-multiplicity = k!     * leading coefficient of its running sum

The slice polynomial itself is obtained by exact interpolation at the k nodes
d = d0 .. d0+k-1 and then *validated* at two held-out nodes; any mismatch
raises ConsistencyError rather than returning a wrong polynomial.  Since the
running sum of a degree k-1 polynomial has leading coefficient lead/k, the
equality of the two multiplicities is an arithmetic identity here, and the
real correctness signal comes from the independent oracles:

  * the closed-form products of factorials,
  * degrees of Grassmannians / orthogonal Grassmannians,
  * counts of (shifted) standard tableaux,
  * the Selberg-integral route with its explicit constant.

All five routes must agree exactly, as rationals, with denominator 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ConsistencyError, RationalPolynomial, factorial, interpolate, poly_range_sum
from .family import Family
from .maximal_minors import GenericParams

__all__ = [
    "ConsistencyError",
    "Family",
    "MultiplicityReport",
    "build_report",
    "closed_form_generic",
    "closed_form_pfaffian",
    "epsilon_multiplicity",
    "grassmannian_degree",
    "integral_formula_generic",
    "integral_formula_pfaffian",
    "j_multiplicity",
    "orthogonal_grassmannian_degree",
    "selberg_integral",
    "shifted_tableaux_staircase",
    "slice_polynomial",
    "standard_tableaux_rectangle",
]


def _integer(value: Fraction, what: str) -> int:
    """The numerator of an integral value; a fractional one is a bug, never a result."""
    if value.denominator != 1:
        raise ConsistencyError(f"{what} is not an integer: {value}")
    return value.numerator


def slice_polynomial(family: Family) -> RationalPolynomial:
    """Exact polynomial agreeing with slice_length(d) for all d >= d0.

    Interpolates at the k nodes d0 .. d0+k-1 (k the ring dimension, so the
    degree is k-1) and validates the result at the held-out nodes d0+k and
    d0+k+1.  A mismatch, or a drop in degree, raises ConsistencyError.
    """
    k = family.ring_dimension
    d0 = family.first_finite_power
    nodes = [(d, family.slice_length(d)) for d in range(d0, d0 + k)]
    poly = interpolate(nodes)
    for d in (d0 + k, d0 + k + 1):
        expected = family.slice_length(d)
        got = poly(d)
        if got != expected:
            raise ConsistencyError(
                f"{family.label}: interpolated slice polynomial gives {got} at "
                f"d={d}, slice_length gives {expected}"
            )
    if poly.degree != k - 1:
        raise ConsistencyError(
            f"{family.label}: slice polynomial has degree {poly.degree}, expected {k - 1}"
        )
    return poly


def j_multiplicity(family: Family) -> Fraction:
    """(k-1)! times the leading coefficient of the slice polynomial."""
    return build_report(family).j_multiplicity


def epsilon_multiplicity(family: Family) -> Fraction:
    """k! times the leading coefficient of the summed slice polynomial.

    Equals j_multiplicity exactly: summation divides the leading coefficient
    by k while the normalization multiplies by k.
    """
    return build_report(family).epsilon_multiplicity


def closed_form_generic(m: int, n: int) -> int:
    """(mn)! * prod_{i=0}^{n-1} i! / (m+i)!, the generic-family multiplicity."""
    if not m >= n >= 1:
        raise ValueError(f"closed_form_generic requires m >= n >= 1, got m={m}, n={n}")
    value = Fraction(factorial(m * n))
    for i in range(n):
        value *= Fraction(factorial(i), factorial(m + i))
    return _integer(value, f"closed_form_generic({m}, {n})")


def grassmannian_degree(a: int, b: int) -> int:
    """Degree of the Grassmannian of a-planes in b-space under its Pluecker embedding.

    deg = (a(b-a))! * prod_{i=0}^{a-1} i! / (b-a+i)!; specializing to
    (n, m+n) reproduces closed_form_generic(m, n).
    """
    if not 0 < a < b:
        raise ValueError(f"grassmannian_degree requires 0 < a < b, got a={a}, b={b}")
    value = Fraction(factorial(a * (b - a)))
    for i in range(a):
        value *= Fraction(factorial(i), factorial(b - a + i))
    return _integer(value, f"grassmannian_degree({a}, {b})")


def closed_form_pfaffian(n: int) -> int:
    """(2n^2+n)! * prod_{i=0}^{n-1} (2i)! / (2n+1+2i)!, the pfaffian multiplicity."""
    if n < 1:
        raise ValueError(f"closed_form_pfaffian requires n >= 1, got {n}")
    value = Fraction(factorial(2 * n * n + n))
    for i in range(n):
        value *= Fraction(factorial(2 * i), factorial(2 * n + 1 + 2 * i))
    return _integer(value, f"closed_form_pfaffian({n})")


def orthogonal_grassmannian_degree(a: int) -> int:
    """Degree of the orthogonal Grassmannian OG(a, 2a+1).

    deg = ((a^2+a)/2)! * (1! 2! ... (a-1)!) / (1! 3! ... (2a-1)!); at a = 2n
    this coincides with closed_form_pfaffian(n).
    """
    if a < 1:
        raise ValueError(f"orthogonal_grassmannian_degree requires a >= 1, got {a}")
    num = 1
    for i in range(1, a):
        num *= factorial(i)
    den = 1
    for i in range(1, 2 * a, 2):
        den *= factorial(i)
    value = Fraction(factorial(a * (a + 1) // 2) * num, den)
    return _integer(value, f"orthogonal_grassmannian_degree({a})")


def standard_tableaux_rectangle(m: int, n: int) -> int:
    """Number of standard Young tableaux of the m-row, n-column rectangle.

    Hook length formula: (mn)! divided by the product of all hook lengths;
    for the rectangle the hook of cell (i, j) (0-indexed) is
    (n - j) + (m - i) - 1.
    """
    if m < 1 or n < 1:
        raise ValueError(f"standard_tableaux_rectangle requires m, n >= 1, got {m}, {n}")
    hooks = 1
    for i in range(m):
        for j in range(n):
            hooks *= (n - j) + (m - i) - 1
    value = Fraction(factorial(m * n), hooks)
    return _integer(value, f"standard_tableaux_rectangle({m}, {n})")


def shifted_tableaux_staircase(a: int) -> int:
    """Number of shifted standard tableaux of the staircase (a, a-1, ..., 1).

    For a strict partition with parts p_i and N boxes the count is
    N! / (prod p_i!) * prod_{i<j} (p_i - p_j) / (p_i + p_j); it equals the
    orthogonal Grassmannian degree OG(a, 2a+1).
    """
    if a < 1:
        raise ValueError(f"shifted_tableaux_staircase requires a >= 1, got {a}")
    parts = list(range(a, 0, -1))
    value = Fraction(factorial(a * (a + 1) // 2))
    for p in parts:
        value /= factorial(p)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            value *= Fraction(parts[i] - parts[j], parts[i] + parts[j])
    return _integer(value, f"shifted_tableaux_staircase({a})")


def selberg_integral(n: int, a: int, b: int, c: int) -> Fraction:
    """Selberg's integral S_n(a, b, c) for positive integer parameters.

    S_n(a,b,c) = integral over [0,1]^n of
        prod x_i^(a-1) (1-x_i)^(b-1) * prod_{i<j} |x_i - x_j|^(2c)
      = prod_{i=0}^{n-1} G(a+ic) G(b+ic) G(1+(i+1)c) / (G(a+b+(n+i-1)c) G(1+c))

    with G the Gamma function; integer parameters keep every Gamma value a
    factorial, so the result is an exact rational.
    """
    if n < 1:
        raise ValueError(f"selberg_integral requires n >= 1, got {n}")
    if a < 1 or b < 1 or c < 1:
        raise ValueError(
            f"selberg_integral requires positive integer parameters, got a={a}, b={b}, c={c}"
        )
    value = Fraction(1)
    for i in range(n):
        num = factorial(a + i * c - 1) * factorial(b + i * c - 1) * factorial((i + 1) * c)
        den = factorial(a + b + (n + i - 1) * c - 1) * factorial(c)
        value *= Fraction(num, den)
    return value


def integral_formula_generic(m: int, n: int) -> Fraction:
    """Selberg route for the generic family.

    Constant (mn-1)! * prod_{i=1}^{n} 1/((n-i)! (m-i)!) times the integral of
    prod (1-x_i)^(m-n) x_i^2 * prod (x_i - x_j)^2 over the ordered simplex in
    n-1 variables; the cube-valued Selberg integral S_{n-1}(3, m-n+1, 1) is
    divided by (n-1)! to pass to the simplex.  For n = 1 the integral is the
    empty product 1.
    """
    if not m >= n >= 1:
        raise ValueError(f"integral_formula_generic requires m >= n >= 1, got m={m}, n={n}")
    constant = Fraction(factorial(m * n - 1))
    for i in range(1, n + 1):
        constant /= factorial(n - i) * factorial(m - i)
    if n == 1:
        return constant
    return constant * selberg_integral(n - 1, 3, m - n + 1, 1) / factorial(n - 1)


def integral_formula_pfaffian(n: int) -> Fraction:
    """Selberg route for the pfaffian family.

    Constant (2n^2+n-1)! * prod_{i=1}^{2n} 1/i! times the simplex integral of
    prod x_i^2 (1-x_i)^4 * prod (x_i - x_j)^4 in n-1 variables, i.e.
    S_{n-1}(3, 5, 2) / (n-1)! on the cube.
    """
    if n < 1:
        raise ValueError(f"integral_formula_pfaffian requires n >= 1, got {n}")
    constant = Fraction(factorial(2 * n * n + n - 1))
    for i in range(1, 2 * n + 1):
        constant /= factorial(i)
    if n == 1:
        return constant
    return constant * selberg_integral(n - 1, 3, 5, 2) / factorial(n - 1)


@dataclass(frozen=True)
class MultiplicityReport:
    """Everything the multiplicity pipeline produces for one family instance."""

    family: Family
    local_cohomology_degree: int
    slice_polynomial: RationalPolynomial
    j_multiplicity: Fraction
    epsilon_multiplicity: Fraction
    oracles: dict[str, Fraction]
    all_agree: bool


# jobs: unused; bench/tracer.py calls this positionally (ROADMAP item 2).
def build_report(family: Family, jobs: int | None = None) -> MultiplicityReport:
    """Run the interpolation route and every applicable oracle for a family.

    all_agree is set exactly when every oracle value equals the interpolated
    j-multiplicity.
    """
    poly = slice_polynomial(family)
    k = family.ring_dimension
    j_mult = factorial(k - 1) * poly.leading_coefficient
    eps_mult = factorial(k) * poly_range_sum(poly, family.first_finite_power).leading_coefficient
    if isinstance(family, GenericParams):
        m, n = family.m, family.n
        oracles = {
            "closed_form": Fraction(closed_form_generic(m, n)),
            "grassmannian_degree": Fraction(grassmannian_degree(n, m + n)),
            "tableaux_count": Fraction(standard_tableaux_rectangle(m, n)),
            "selberg_integral": integral_formula_generic(m, n),
        }
    else:
        n = family.n
        oracles = {
            "closed_form": Fraction(closed_form_pfaffian(n)),
            "orthogonal_grassmannian_degree": Fraction(orthogonal_grassmannian_degree(2 * n)),
            "tableaux_count": Fraction(shifted_tableaux_staircase(2 * n)),
            "selberg_integral": integral_formula_pfaffian(n),
        }
    all_agree = all(value == j_mult for value in oracles.values())
    return MultiplicityReport(
        family=family,
        local_cohomology_degree=family.finite_cohomology_degree,
        slice_polynomial=poly,
        j_multiplicity=j_mult,
        epsilon_multiplicity=eps_mult,
        oracles=oracles,
        all_agree=all_agree,
    )
