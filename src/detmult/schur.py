"""Dimensions of irreducible GL(N) representations.

A dominant weight is a weakly decreasing tuple of integers (negative entries
allowed) whose length is the rank N.  ``weyl_dimension`` evaluates the Weyl
dimension formula

    dim = prod_{1 <= i < j <= N} (w_i - w_j + j - i) / (j - i)

exactly: all numerators and all denominators are multiplied out as big
integers and divided once at the end.  Only entry differences enter, which is
why ``shift`` (adding a constant to every entry) never changes the dimension.
"""

from __future__ import annotations

from typing import Sequence

from .arith import ConsistencyError

__all__ = ["embed_weight", "shift", "weyl_dimension"]


def _validate_dominant(weight: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weight)
    for i in range(len(w) - 1):
        if w[i] < w[i + 1]:
            raise ValueError(f"weight is not weakly decreasing: {w}")
    return w


def weyl_dimension(weight: Sequence[int], n: int | None = None) -> int:
    """Dimension of the irreducible GL representation with the given highest weight.

    If n is given the weight is padded with zeros to length n, which is only
    valid (and only accepted) when the padded tuple is still dominant.
    """
    w = tuple(weight)
    if n is not None:
        if n < len(w):
            raise ValueError(f"rank {n} is smaller than the weight length {len(w)}")
        w = w + (0,) * (n - len(w))
    w = _validate_dominant(w)
    num = 1
    den = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError(f"Weyl product {num}/{den} is not an integer at {w}")
    return q


def shift(weight: Sequence[int], c: int) -> tuple[int, ...]:
    """Add c to every entry; leaves weyl_dimension unchanged."""
    return tuple(w + c for w in weight)


def embed_weight(weight: Sequence[int], s: int, m: int) -> tuple[int, ...]:
    """Extend a dominant weight of length n to a dominant weight of length m > n.

    The first s entries are kept, a block of m-n copies of s-n is inserted,
    and the remaining entries are raised by m-n:

        (w_1, ..., w_s, (s-n)^(m-n), w_{s+1} + (m-n), ..., w_n + (m-n)).

    Dominance of the result requires w_s >= s-n and w_{s+1} <= s-m; violations
    raise ValueError.
    """
    w = _validate_dominant(weight)
    n = len(w)
    if not m > n >= 1:
        raise ValueError(f"embed_weight requires m > n >= 1, got m={m}, n={n}")
    if not 0 <= s <= n:
        raise ValueError(f"embed_weight requires 0 <= s <= n, got s={s}")
    if s >= 1 and w[s - 1] < s - n:
        raise ValueError(f"entry {s} must be >= {s - n}, got {w[s - 1]}")
    if s < n and w[s] > s - m:
        raise ValueError(f"entry {s + 1} must be <= {s - m}, got {w[s]}")
    out = w[:s] + (s - n,) * (m - n) + tuple(x + (m - n) for x in w[s:])
    return _validate_dominant(out)
