"""Ext-module lengths for thickenings by powers of a maximal-minors ideal.

Setting: the coordinate ring of generic m x n matrices (m >= n) and the ideal
generated by its n x n minors.  For m > n exactly one cohomological degree,
j = n(m-n) + 1, carries Ext modules of finite nonzero length, and that only
once the power d reaches n.  The finite length of the consecutive-power slice
is a sum of products of two Weyl dimensions over weakly decreasing tuples
(e_1 >= ... >= e_{n-1}) in [0, d-n]:

    slice(d) = sum  dim S_(e, 0) C^n  *  dim S_((d-n)^(m-n), e, 0) C^m.

``slice_length`` evaluates this sum in moment form.  With x_t = e_t + n - t
(t = 1..n, so x_n = 0 is pinned) the free points x_1 > ... > x_{n-1} range
over the (n-1)-subsets of {1, ..., d-1}.  Both Weyl products contain the
Vandermonde of x_1, ..., x_n, and the constant block of the second weight
contributes W_d(x) = (d-x+m-n-1)! / (d-x-1)! = (m-n)! C(d-1-x+m-n, m-n) per
point.  Heine's (Andreief's) identity turns the sum over subsets of
Vandermonde^2 * prod W_d(x_t) into the Hankel determinant of the moments
mu_r = sum_{x=1}^{d-1} x^(r+2) W_d(x), where x^2 is the Vandermonde factor
against the pinned point 0:

    slice(d) = W_d(0) * det[mu_(i+j)]_(0 <= i, j <= n-2)
               / (prod_{1<=s<t<=n} (t-s)^2 * prod_{t=1}^{n} (t+m-n-1)! / (t-1)!)

That is O(d n) big-integer work per power instead of C(d-1, n-1) tuples.  For
d < n the formula is 0 by itself: the Hankel matrix has rank at most d-1, the
number of support points, below its size n-1.  For n = 1 the determinant is
empty, no moment is taken and the formula is C(d+m-2, m-1), in O(1).
``GenericParams.reference_slice_length`` keeps the tuple sum itself as the
independent route that ``verify`` and the tests compare against.

For m = n the classification degenerates (the ideal is principal) and the
degree bookkeeping below refuses it, but the slice sums themselves remain
well defined and are used by the multiplicity pipeline, where they reproduce
the square-matrix Catalan values.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .arith import determinant, exact_quotient, factorial, power_sums
from .family import Family
from .partitions import weakly_decreasing_tuples
from .schur import weyl_dimension

__all__ = ["GenericParams", "cumulative_length", "slice_length"]


class GenericParams(Family):
    """Size of the generic matrix: m rows, n columns, m >= n >= 1."""

    kind = "generic-maximal-minors"
    fields = ("m", "n")

    def _check_parameters(self) -> None:
        if not self.m >= self.n >= 1:
            raise ValueError(f"GenericParams requires m >= n >= 1, got m={self.m}, n={self.n}")

    @property
    def ring_dimension(self) -> int:
        return self.m * self.n

    @property
    def finite_ext_degree(self) -> int:
        """The unique Ext degree of finite nonzero length: n(m-n) + 1."""
        return self.n * (self.m - self.n) + 1

    @property
    def first_finite_power(self) -> int:
        return self.n

    def slice_length(self, d: int) -> int:
        return slice_length(self, d)  # the module attribute, resolved per call

    def reference_slice_length(self, d: int) -> int:
        """The slice length as the plain sum over weight tuples, for cross-checks only."""
        if d < 1:
            raise ValueError(f"reference_slice_length requires d >= 1, got {d}")
        m, n = self.m, self.n
        return sum(
            weyl_dimension(eps + (0,)) * weyl_dimension((d - n,) * (m - n) + eps + (0,))
            for eps in weakly_decreasing_tuples(n - 1, d - n)
        )

    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees j with a nonzero Ext module for the d-th power.

        Layer c of the power, 0 <= c <= d-1, contributes j = n(m-n) + 1 - s(m-n)
        for each 0 <= s <= n-1 that admits a weakly decreasing integer weight
        chain of length n with last entry n-1-c-m, entry s at least s-n and
        entry s+1 at most s-m.  The entries up to s can be raised freely, so
        the chain exists exactly when the last entry fits under the ceiling,
        n-1-c-m <= s-m, that is s >= n-1-c.  The union over the layers is
        max(0, n-d) <= s <= n-1: every j satisfies (m-n) | (1-j) and
        2 <= j <= n(m-n)+1, and the top degree appears from d = n on.
        """
        if self.m == self.n:
            raise ValueError("cohomological degree classification requires m > n")
        if d < 1:
            raise ValueError(f"nonvanishing_degrees requires d >= 1, got {d}")
        step = self.m - self.n
        return frozenset(self.finite_ext_degree - s * step for s in range(max(0, self.n - d), self.n))

    def oracles(self) -> dict[str, Fraction]:
        from . import multiplicities as mu  # resolved per call, so patched oracles are seen

        m, n = self.m, self.n
        return {
            "closed_form": Fraction(mu.closed_form_generic(m, n)),
            "grassmannian_degree": Fraction(mu.grassmannian_degree(n, m + n)),
            "tableaux_count": Fraction(mu.standard_tableaux_rectangle(m, n)),
            "selberg_integral": mu.integral_formula_generic(m, n),
        }


def _moment_denominator(m: int, n: int) -> int:
    """prod_{1<=s<t<=n} (t-s)^2 * prod_{t=1}^{n} (t+m-n-1)!/(t-1)!.

    Since prod_{s<t} (t-s) = prod_t (t-1)!, this is prod_{t=1}^{n} (t-1)! (t+m-n-1)!.
    """
    out = 1
    for t in range(1, n + 1):
        out *= factorial(t - 1) * factorial(t + m - n - 1)
    return out


# jobs: unused; bench/tracer.py calls it positionally (ROADMAP item 1, "Benchmark v2").
def slice_length(params: GenericParams, d: int, jobs: int | None = None) -> int:
    """Length of the finite Ext module of the slice between powers d-1 and d.

    The Hankel determinant of moments described in the module docstring, taken
    over the weights W_d(x) / (m-n)! = C(d-1-x+m-n, m-n); the factor
    (m-n)!^n goes onto the numerator once, and the final division is checked.
    Zero for d < n, where the determinant vanishes.
    """
    if d < 1:
        raise ValueError(f"slice_length requires d >= 1, got {d}")
    m, n = params.m, params.n
    weights = ((x, x * x * comb(d - 1 - x + m - n, m - n)) for x in range(1, d))  # x^2 W_d(x) / (m-n)!
    moments = power_sums(weights, 2 * n - 3)
    hankel = [moments[i:i + n - 1] for i in range(n - 1)]
    numerator = factorial(m - n) ** n * comb(d - 1 + m - n, m - n) * determinant(hankel)
    return exact_quotient(numerator, _moment_denominator(m, n), f"{params.label} slice at d={d}")


# cumulative_length: a module-level spelling of the member; bench/tracer.py patches it
# (ROADMAP item 1, "Benchmark v2").
cumulative_length = GenericParams.cumulative_length


def __getattr__(name: str):
    """Resolve ProcessPoolExecutor lazily (PEP 562), keeping multiprocessing out of start-up.

    Nothing here starts a pool; bench/tracer.py patches this name until the
    benchmark drops that patch (ROADMAP item 1, "Benchmark v2").
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
