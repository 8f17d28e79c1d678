"""Ext-module lengths for thickenings by powers of a sub-maximal pfaffian ideal.

Setting: the coordinate ring of (2n+1) x (2n+1) skew-symmetric matrices (ring
dimension 2n^2 + n) and the ideal of its 2n x 2n pfaffians.  The unique
cohomological degree with finite nonzero Ext length is j = 2n + 1, reached
once the power d is at least 2n - 1.  The slice length is a single sum of
Weyl dimensions over weakly decreasing tuples (e_1 >= ... >= e_{n-1}) in
[0, d+1-2n], each contributing the dominant weight

    (d+1, d+1, 2n+e_1, 2n+e_1, ..., 2n+e_{n-1}, 2n+e_{n-1}, 2n)

of length 2n + 1; all interior entries occur in equal pairs.

``slice_length`` evaluates this sum in moment form.  Shifted by the Weyl
vector (entry i plus 2n+1-i, then minus 2n), the weight becomes the point 0,
the pinned pair {d, d+1} and one pair {z, z+1} per tuple entry, the n-1 free
z lying in {1, ..., d-2}.  In the Weyl product two pairs whose z differ by
delta contribute delta^2 (delta^2 - 1), which vanishes for overlapping
pairs, and each free pair contributes omega_d(z) = z(z+1)(d-z)^2((d-z)^2-1)
against the pinned points.  De Bruijn's Pfaffian identity (1955) turns the
sum over sets of free pairs into the Pfaffian of the skew moment matrix
A_ij = B_ij - B_ji (0 <= i, j < 2n-2), z running over 1..d-2 in

    B_ij = sum_z omega_d(z) (z+1)^i z^j = sum_{a<=i} C(i, a) M_(a+j),  M_r = sum_z omega_d(z) z^r,

    slice(d) = (-1)^(n-1) d(d+1) Pf(A) / prod_{1<=p<q<=2n+1} (q-p).

By Cayley's identity det A = Pf(A)^2; the slice is a length, hence
nonnegative, so slice(d) = d(d+1) isqrt(det A) / prod (q-p), the determinant
coming from the generic kernel's Bareiss elimination (a non-square raises
ConsistencyError).  That is O(d n) big-integer work per power for the moments
plus one elimination of size 2n-2, not a tuple count growing like d^(n-1).
For d < 2n-1 the formula is 0 by itself: de Bruijn's sum needs n-1 pairwise
non-adjacent points in {1, ..., d-2}, and there are none.  For n = 1 the
matrix is empty and the formula is d(d+1)/2.  The tuple sum itself is
``PfaffianParams.reference_slice_length``, the independent route that
``verify`` and the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .arith import ConsistencyError, determinant, exact_quotient, factorial, power_sums
from .family import Family
from .partitions import weakly_decreasing_tuples
from .schur import weyl_dimension

__all__ = ["PfaffianParams", "cumulative_length", "slice_length", "slice_weight"]


class PfaffianParams(Family):
    """Half-size parameter n >= 1; the skew-symmetric matrix is (2n+1) x (2n+1)."""

    kind = "sub-maximal-pfaffians"
    fields = ("n",)

    def _check_parameters(self) -> None:
        if self.n < 1:
            raise ValueError(f"PfaffianParams requires n >= 1, got {self.n}")

    @property
    def ring_dimension(self) -> int:
        return 2 * self.n * self.n + self.n

    @property
    def finite_ext_degree(self) -> int:
        return 2 * self.n + 1

    @property
    def first_finite_power(self) -> int:
        return 2 * self.n - 1

    def slice_length(self, d: int) -> int:
        return slice_length(self, d)  # the module attribute, resolved per call

    def reference_slice_length(self, d: int) -> int:
        """The slice length as the plain sum over weight tuples, for cross-checks only."""
        if d < 1:
            raise ValueError(f"reference_slice_length requires d >= 1, got {d}")
        return sum(
            weyl_dimension(slice_weight(self, d, eps))
            for eps in weakly_decreasing_tuples(self.n - 1, d + 1 - 2 * self.n)
        )

    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees with nonzero Ext for the d-th pfaffian power.

        Layer c of the power, 0 <= c <= d-1, reaches the values of the third
        tableau bound t with ceil(n - 1 - c/2) <= t <= n-1, each contributing
        j = 2(n-t) + 1.  The union over the layers is
        max(0, n - ceil(d/2)) <= t <= n-1: every degree is odd, lies in
        [3, 2n+1], and the top degree appears from d = 2n-1 on.
        """
        if d < 1:
            raise ValueError(f"nonvanishing_degrees requires d >= 1, got {d}")
        n = self.n
        return frozenset(2 * (n - t) + 1 for t in range(max(0, n - (d + 1) // 2), n))

    def oracles(self) -> dict[str, Fraction]:
        from . import multiplicities as mu  # resolved per call, so patched oracles are seen

        n = self.n
        return {
            "closed_form": Fraction(mu.closed_form_pfaffian(n)),
            "orthogonal_grassmannian_degree": Fraction(mu.orthogonal_grassmannian_degree(2 * n)),
            "tableaux_count": Fraction(mu.shifted_tableaux_staircase(2 * n)),
            "selberg_integral": mu.integral_formula_pfaffian(n),
        }


def slice_weight(params: PfaffianParams, d: int, epsilon: Sequence[int]) -> tuple[int, ...]:
    """Dominant weight of one slice summand for the given tuple epsilon.

    epsilon must be weakly decreasing, nonnegative, of length n-1, with
    leading entry at most d+1-2n; the returned weight has length 2n+1 and
    equal interior pairs.
    """
    n = params.n
    eps = tuple(epsilon)
    if len(eps) != n - 1:
        raise ValueError(f"epsilon must have length {n - 1}, got {len(eps)}")
    if any(eps[i] < eps[i + 1] for i in range(len(eps) - 1)) or (eps and eps[-1] < 0):
        raise ValueError(f"epsilon must be weakly decreasing and nonnegative: {eps}")
    if eps and eps[0] > d + 1 - 2 * n:
        raise ValueError(f"leading entry must be <= {d + 1 - 2 * n}, got {eps[0]}")
    w = [d + 1, d + 1]
    for e in eps:
        w += [2 * n + e, 2 * n + e]
    w.append(2 * n)
    return tuple(w)


def _moment_denominator(n: int) -> int:
    """prod_{1<=p<q<=2n+1} (q-p), which is prod_{t=1}^{2n+1} (t-1)!."""
    out = 1
    for t in range(1, 2 * n + 2):
        out *= factorial(t - 1)
    return out


# jobs: unused; bench/tracer.py calls it positionally (ROADMAP item 1, "Benchmark v2").
def slice_length(params: PfaffianParams, d: int, jobs: int | None = None) -> int:
    """Length of the finite Ext module of the slice between powers d-1 and d.

    Computed from the skew moment determinant described in the module
    docstring; the square root and the division are checked.  Zero for
    d < 2n-1, where the Pfaffian vanishes, and exactly 1 at d = 2n-1, where
    the only summand is a constant weight.
    """
    if d < 1:
        raise ValueError(f"slice_length requires d >= 1, got {d}")
    n = params.n
    omega = ((z, z * (z + 1) * (d - z) ** 2 * ((d - z) ** 2 - 1)) for z in range(1, d - 1))
    moments = power_sums(omega, 4 * n - 5)
    size = 2 * n - 2
    shifted = [moments]  # row i holds B_ij; Pascal's rule gives B_(i+1)j = B_ij + B_i(j+1)
    for _ in range(size - 1):
        shifted.append([a + b for a, b in zip(shifted[-1], shifted[-1][1:])])
    square = determinant([[shifted[i][j] - shifted[j][i] for j in range(size)] for i in range(size)])
    what = f"{params.label} slice at d={d}"
    root = isqrt(max(square, 0))
    if root * root != square:
        raise ConsistencyError(f"{what}: determinant {square} is not a perfect square")
    return exact_quotient(d * (d + 1) * root, _moment_denominator(n), what)


# cumulative_length: a module-level spelling of the member; bench/tracer.py patches it
# (ROADMAP item 1, "Benchmark v2").
cumulative_length = PfaffianParams.cumulative_length


def __getattr__(name: str):
    """Resolve ProcessPoolExecutor lazily (PEP 562), keeping multiprocessing out of start-up.

    Nothing here starts a pool; bench/tracer.py patches this name until the
    benchmark drops that patch (ROADMAP item 1, "Benchmark v2").
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
