"""Integer partitions and the layer indices of powers of equivariant ideals.

A partition is a plain tuple of weakly decreasing nonnegative integers in
canonical form, i.e. with trailing zeros stripped; ``normalize`` produces this
form and two partitions are equal exactly when their canonical tuples are.
``part(x, i)`` reads the i-th part (1-indexed) and returns 0 past the end, so
ambient length never has to be tracked explicitly.

A pair (partition, level) indexes one layer of the equivariant filtration of
a power of a determinantal or pfaffian ideal.  ``is_layer_index`` decides
membership directly from the defining two-clause condition, while
``power_ideal_layers`` enumerates the same set through its closed form; the
two routes are checked against each other in the verification suite.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Collection, Iterator, NamedTuple

PartitionLike = tuple[int, ...]

__all__ = [
    "LayerIndex",
    "box_partitions",
    "conjugate",
    "contained_in",
    "is_layer_index",
    "maximal_minor_layers",
    "normalize",
    "part",
    "power_ideal_layers",
    "truncate",
    "weakly_decreasing_tuples",
]


def normalize(parts: Collection[int]) -> PartitionLike:
    """Canonical form of a partition: tuple with trailing zeros stripped."""
    t = tuple(parts)
    for i in range(len(t) - 1):
        if t[i] < t[i + 1]:
            raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def part(x: PartitionLike, i: int) -> int:
    """i-th part of x, 1-indexed; 0 beyond the stored length."""
    return x[i - 1] if 1 <= i <= len(x) else 0


def conjugate(x: PartitionLike) -> PartitionLike:
    """Transpose of the Young diagram: entry i counts parts of x that are >= i."""
    x = normalize(x)
    if not x:
        return ()
    return tuple(sum(1 for p in x if p > j) for j in range(x[0]))


def truncate(x: PartitionLike, c: int) -> PartitionLike:
    """Entrywise minimum of x with c."""
    if c < 0:
        raise ValueError(f"truncate requires c >= 0, got {c}")
    return normalize(tuple(min(p, c) for p in normalize(x)))


def contained_in(inner: PartitionLike, outer: PartitionLike) -> bool:
    """Young-diagram containment: every part of inner fits under outer."""
    n = max(len(inner), len(outer))
    return all(part(inner, i) <= part(outer, i) for i in range(1, n + 1))


def weakly_decreasing_tuples(length: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing tuples of the given length with entries in [0, bound].

    Yields nothing when bound < 0 and length > 0; yields the empty tuple once
    when length is 0; raises ValueError when length < 0.  Generation is
    lexicographically descending.
    """
    return combinations_with_replacement(range(bound, -1, -1), length)


def box_partitions(total: int, rows: int, width: int) -> list[PartitionLike]:
    """Partitions of `total` with at most `rows` parts, each part <= `width`."""
    return [normalize(t) for t in weakly_decreasing_tuples(rows, width) if sum(t) == total]


class LayerIndex(NamedTuple):
    """Index (partition, level) of one filtration layer.

    The first level+1 parts of the partition are equal; the enumeration
    functions below only produce indices satisfying this.
    """

    partition: PartitionLike
    level: int


def is_layer_index(
    ideal_partitions: Collection[PartitionLike], partition: PartitionLike, level: int
) -> bool:
    """Decide whether (partition, level) indexes a layer for the given ideal family.

    With c the largest part of `partition`, the pair qualifies exactly when

      1. some member x of the family satisfies truncate(x, c) <= partition and
         has at most level+1 columns past width c (conjugate(x)[c+1] <= level+1), and
      2. every member satisfying clause 1 has conjugate(x)[c+1] = level + 1.

    Both are read off x directly: truncate(x, c) <= partition is
    min(x_i, c) <= partition_i for every part, and conjugate(x)[c+1] is the
    number of parts of x greater than c.  Together the clauses say that the
    smallest such column height over the members with truncate(x, c) <=
    partition is exactly level + 1.
    """
    if not ideal_partitions:
        raise ValueError("is_layer_index requires a nonempty family of partitions")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    z = normalize(partition)
    c = part(z, 1)
    heights = [
        sum(1 for p in x if p > c)
        for x in map(normalize, ideal_partitions)
        if all(min(p, c) <= part(z, i) for i, p in enumerate(x, 1))
    ]
    return min(heights, default=0) == level + 1


def maximal_minor_layers(n: int, d: int) -> list[LayerIndex]:
    """Layer indices for the d-th power in the maximal-minors case.

    Exactly the d pairs ((c, ..., c) with n parts, level n-1) for
    c = 0, ..., d-1; the constant-zero partition appears in canonical form
    as the empty tuple.
    """
    if n < 1 or d < 1:
        raise ValueError(f"maximal_minor_layers requires n >= 1 and d >= 1, got n={n}, d={d}")
    return [LayerIndex(normalize((c,) * n), n - 1) for c in range(d)]


def power_ideal_layers(n: int, p: int, d: int) -> list[LayerIndex]:
    """Layer indices for the d-th power of the ideal of p x p minors, n columns.

    Closed form: all pairs (z, l) with 0 <= l <= p-1, z a partition with at
    most n parts, z_1 = ... = z_{l+1} <= d-1, and

        |z| + (d - z_1) * l + 1  <=  p * d  <=  |z| + (d - z_1) * (l + 1).

    Candidate parts never exceed z_1, so the enumeration is finite.
    """
    if not 1 <= p <= n:
        raise ValueError(f"power_ideal_layers requires 1 <= p <= n, got p={p}, n={n}")
    if d < 1:
        raise ValueError(f"power_ideal_layers requires d >= 1, got {d}")
    out = []
    for level in range(p):
        for z1 in range(d):
            for rest in weakly_decreasing_tuples(n - (level + 1), z1):
                z = (z1,) * (level + 1) + rest
                sz = sum(z)
                if sz + (d - z1) * level + 1 <= p * d <= sz + (d - z1) * (level + 1):
                    out.append(LayerIndex(normalize(z), level))
    return sorted(out)
