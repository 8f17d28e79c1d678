"""Ext-module lengths for thickenings by powers of a maximal-minors ideal.

Setting: the coordinate ring of generic m x n matrices (m >= n) and the ideal
generated by its n x n minors.  For m > n exactly one cohomological degree,
j = n(m-n) + 1, carries Ext modules of finite nonzero length, and that only
once the power d reaches n.  The finite length of the consecutive-power slice
is a sum of products of two Weyl dimensions over weakly decreasing tuples
(e_1 >= ... >= e_{n-1}) in [0, d-n]:

    slice(d) = sum  dim S_(e, 0) C^n  *  dim S_((d-n)^(m-n), e, 0) C^m.

For m = n the classification degenerates (the ideal is principal) and the
degree bookkeeping below refuses it, but the slice sums themselves remain
well defined and are used by the multiplicity pipeline, where they reproduce
the square-matrix Catalan values.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .family import Family, LengthClassification
from .partitions import weakly_decreasing_tuples
from .schur import weyl_dimension

__all__ = [
    "GenericParams",
    "LengthClassification",
    "cumulative_length",
    "length_classification",
    "local_cohomology_index",
    "nonvanishing_degrees",
    "slice_length",
]

# Engage worker processes only when the outer enumeration is at least this wide;
# below it the pool startup dominates the exact arithmetic.
_PARALLEL_THRESHOLD = 64


@dataclass(frozen=True)
class GenericParams(Family):
    """Size of the generic matrix: m rows, n columns, m >= n >= 1."""

    m: int
    n: int

    kind = "generic-maximal-minors"

    def __post_init__(self) -> None:
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

    @property
    def label(self) -> str:
        return f"{self.kind}(m={self.m}, n={self.n})"

    @property
    def parameters(self) -> dict[str, str]:
        return {"family": self.kind, "m": str(self.m), "n": str(self.n)}

    def slice_length(self, d: int, jobs: int | None = None) -> int:
        return slice_length(self, d, jobs)  # the module attribute, resolved per call

    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees j with a nonzero Ext module for the d-th power.

        Derived from first principles: each feasible pair (c, s) with
        0 <= c <= d-1, 0 <= s <= n-1 contributes j = n(m-n) + 1 - s(m-n).
        Every emitted j satisfies (m-n) | (1-j) and 2 <= j <= n(m-n)+1.
        """
        _require_rectangular(self)
        if d < 1:
            raise ValueError(f"nonvanishing_degrees requires d >= 1, got {d}")
        m, n = self.m, self.n
        out = set()
        for c in range(d):
            for s in range(n):
                if _weight_chain_feasible(m, n, c, s):
                    out.add(self.finite_ext_degree - s * (m - n))
        return frozenset(out)


def _require_rectangular(params: GenericParams) -> None:
    if params.m == params.n:
        raise ValueError("cohomological degree classification requires m > n")


def _weight_chain_feasible(m: int, n: int, c: int, s: int) -> bool:
    """Existence of a weakly decreasing integer weight chain of length n with
    last entry fixed at n-1-c-m, entry s bounded below by s-n (when s >= 1)
    and entry s+1 bounded above by s-m (when s < n).

    Since m >= n, the floor s-n never lies above the ceiling s-m, so the chain
    exists exactly when the fixed last entry fits under that ceiling.
    """
    return n - 1 - c - m <= s - m


def _slice_term(m: int, n: int, d: int, eps: tuple[int, ...]) -> int:
    small = eps + (0,)
    big = (d - n,) * (m - n) + eps + (0,)
    return weyl_dimension(small) * weyl_dimension(big)


def _slice_block(args: tuple[int, int, int, int]) -> int:
    """Sum of all slice terms whose leading tuple entry equals e1."""
    m, n, d, e1 = args
    total = 0
    for rest in weakly_decreasing_tuples(n - 2, e1):
        total += _slice_term(m, n, d, (e1,) + rest)
    return total


def slice_length(params: GenericParams, d: int, jobs: int | None = None) -> int:
    """Length of the finite Ext module of the slice between powers d-1 and d.

    Zero for d < n.  With jobs > 1 the outer enumeration fans out over worker
    processes; exact integer addition is associative, so the result does not
    depend on the split.
    """
    if d < 1:
        raise ValueError(f"slice_length requires d >= 1, got {d}")
    m, n = params.m, params.n
    if d < n:
        return 0
    if n == 1:
        return weyl_dimension((d - 1,) * (m - 1) + (0,))
    blocks = [(m, n, d, e1) for e1 in range(d - n + 1)]
    if jobs is not None and jobs > 1 and len(blocks) >= _PARALLEL_THRESHOLD:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(_slice_block, blocks))
    return sum(map(_slice_block, blocks))


# Module-level spellings of the members, taking the params as first argument.
cumulative_length = GenericParams.cumulative_length
length_classification = GenericParams.length_classification
local_cohomology_index = GenericParams.local_cohomology_index
nonvanishing_degrees = GenericParams.nonvanishing_degrees
