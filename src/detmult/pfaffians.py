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

    A_ij = sum_{z=1}^{d-2} omega_d(z) ((z+1)^i z^j - z^i (z+1)^j),  0 <= i, j < 2n-2,

    slice(d) = (-1)^(n-1) d(d+1) Pf(A) / prod_{1<=p<q<=2n+1} (q-p).

That is O(d n^2) big-integer work per power instead of a tuple count growing
like d^(n-1).  For n = 1 the Pfaffian is empty and the formula is d(d+1)/2.
``PfaffianParams.reference_slice_length`` keeps the tuple sum itself as the
independent route that ``verify`` and the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arith import exact_quotient, factorial, pfaffian
from .family import Family
from .partitions import weakly_decreasing_tuples
from .schur import weyl_dimension

__all__ = [
    "PfaffianParams",
    "cumulative_length",
    "length_classification",
    "local_cohomology_index",
    "nonvanishing_degrees",
    "slice_length",
    "slice_weight",
]


@dataclass(frozen=True)
class PfaffianParams(Family):
    """Half-size parameter n >= 1; the skew-symmetric matrix is (2n+1) x (2n+1)."""

    n: int

    kind = "sub-maximal-pfaffians"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"PfaffianParams requires n >= 1, got {self.n}")

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    @property
    def ring_dimension(self) -> int:
        return 2 * self.n * self.n + self.n

    @property
    def finite_ext_degree(self) -> int:
        return 2 * self.n + 1

    @property
    def first_finite_power(self) -> int:
        return 2 * self.n - 1

    @property
    def label(self) -> str:
        return f"{self.kind}(n={self.n})"

    @property
    def parameters(self) -> dict[str, str]:
        return {"family": self.kind, "n": str(self.n)}

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

    Zero for d < 2n-1; exactly 1 at d = 2n-1, where the only summand is a
    constant weight.  Computed as the Pfaffian of moments described in the
    module docstring; the final division is checked to be exact.
    """
    if d < 1:
        raise ValueError(f"slice_length requires d >= 1, got {d}")
    n = params.n
    if d < params.first_finite_power:
        return 0
    size = 2 * n - 2
    upper = [[0] * size for _ in range(size)]
    for z in range(1, d - 1):
        y = d - z
        omega = z * (z + 1) * y * y * (y * y - 1)
        low = [z**i for i in range(size)]
        high = [(z + 1) ** i for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                upper[i][j] += omega * (high[i] * low[j] - low[i] * high[j])
    moments = [[upper[i][j] if i < j else -upper[j][i] for j in range(size)] for i in range(size)]
    numerator = (-1) ** (n - 1) * d * (d + 1) * pfaffian(moments)
    return exact_quotient(numerator, _moment_denominator(n), f"{params.label} slice at d={d}")


# Module-level spellings of the members, taking the params as first argument.
cumulative_length = PfaffianParams.cumulative_length
length_classification = PfaffianParams.length_classification
local_cohomology_index = PfaffianParams.local_cohomology_index
nonvanishing_degrees = PfaffianParams.nonvanishing_degrees


def __getattr__(name: str):
    """Resolve ProcessPoolExecutor on first access (PEP 562).

    Nothing here starts a pool; bench/tracer.py patches this name, so it
    stays until the benchmark drops that patch with --jobs (ROADMAP item 1,
    "Benchmark v2").
    Importing concurrent.futures lazily keeps multiprocessing out of start-up.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
