"""Ext-module lengths for thickenings by powers of a sub-maximal pfaffian ideal.

Setting: the coordinate ring of (2n+1) x (2n+1) skew-symmetric matrices (ring
dimension 2n^2 + n) and the ideal of its 2n x 2n pfaffians.  The unique
cohomological degree with finite nonzero Ext length is j = 2n + 1, reached
once the power d is at least 2n - 1.  The slice length is a single sum of
Weyl dimensions over weakly decreasing tuples (e_1 >= ... >= e_{n-1}) in
[0, d+1-2n], each contributing the dominant weight

    (d+1, d+1, 2n+e_1, 2n+e_1, ..., 2n+e_{n-1}, 2n+e_{n-1}, 2n)

of length 2n + 1; all interior entries occur in equal pairs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

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

# Same role as in maximal_minors: pool startup dominates below this width.
_PARALLEL_THRESHOLD = 64


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

    def slice_length(self, d: int, jobs: int | None = None) -> int:
        return slice_length(self, d, jobs)  # the module attribute, resolved per call

    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees with nonzero Ext for the d-th pfaffian power.

        For each c in 0..d-1 the feasible values of the third tableau bound t
        run over max(0, ceil(n - 1 - c/2)) .. n-1, contributing j = 2(n-t) + 1;
        every degree is odd and lies in [3, 2n+1].
        """
        if d < 1:
            raise ValueError(f"nonvanishing_degrees requires d >= 1, got {d}")
        n = self.n
        out = set()
        for c in range(d):
            lo = max(0, -((c - 2 * (n - 1)) // 2))  # ceil((2(n-1) - c) / 2)
            for t in range(lo, n):
                out.add(2 * (n - t) + 1)
        return frozenset(out)


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


def _slice_block(args: tuple[int, int, int]) -> int:
    n, d, e1 = args
    params = PfaffianParams(n)
    total = 0
    for rest in weakly_decreasing_tuples(n - 2, e1):
        total += weyl_dimension(slice_weight(params, d, (e1,) + rest))
    return total


def slice_length(params: PfaffianParams, d: int, jobs: int | None = None) -> int:
    """Length of the finite Ext module of the slice between powers d-1 and d.

    Zero for d < 2n-1; exactly 1 at d = 2n-1, where the only summand is a
    constant weight.
    """
    if d < 1:
        raise ValueError(f"slice_length requires d >= 1, got {d}")
    n = params.n
    if d < params.first_finite_power:
        return 0
    if n == 1:
        return weyl_dimension(slice_weight(params, d, ()))
    blocks = [(n, d, e1) for e1 in range(d + 2 - 2 * n)]
    if jobs is not None and jobs > 1 and len(blocks) >= _PARALLEL_THRESHOLD:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(_slice_block, blocks))
    return sum(map(_slice_block, blocks))


# Module-level spellings of the members, taking the params as first argument.
cumulative_length = PfaffianParams.cumulative_length
length_classification = PfaffianParams.length_classification
local_cohomology_index = PfaffianParams.local_cohomology_index
nonvanishing_degrees = PfaffianParams.nonvanishing_degrees
