"""Independent brute-force oracles used by the tests.

Everything here recomputes values from first definitions (explicit fillings,
explicit monomials, explicit Beta integrals) without touching the formulas
under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

from detmult.partitions import conjugate, contained_in, normalize, part, truncate


def count_ssyt_backtracking(shape: tuple[int, ...], n: int) -> int:
    """Count semistandard fillings of `shape` with entries in 1..n, cell by cell.

    Rows must be weakly increasing left to right, columns strictly increasing
    top to bottom.
    """
    shape = tuple(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    filling: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, filling[(i, j - 1)])
        if i > 0:
            lo = max(lo, filling[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, n + 1):
            filling[(i, j)] = v
            total += place(idx + 1)
        filling.pop((i, j), None)
        return total

    return place(0)


@cache
def count_syt(shape: tuple[int, ...]) -> int:
    """Count standard tableaux by peeling removable corners one box at a time."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if shape[i] - 1 >= below:
            total += count_syt(shape[:i] + (shape[i] - 1,) + shape[i + 1 :])
    return total


@cache
def count_shifted_syt(parts: tuple[int, ...]) -> int:
    """Count standard fillings of a shifted diagram of a strict partition.

    A box is removable when deleting it keeps the parts strictly decreasing
    (a part may reach zero only in the last row).
    """
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        return 1
    total = 0
    for i in range(len(parts)):
        below = parts[i + 1] if i + 1 < len(parts) else 0
        reduced = parts[i] - 1
        if reduced > below or (reduced == 0 and i == len(parts) - 1):
            total += count_shifted_syt(parts[:i] + (reduced,) + parts[i + 1 :])
    return total


def count_monomials(num_vars: int, degree: int) -> int:
    """Monomials of the given total degree, counted by explicit enumeration."""
    return sum(1 for _ in combinations_with_replacement(range(num_vars), degree))


def beta(p: int, q: int) -> Fraction:
    """Beta function at positive integers: (p-1)! (q-1)! / (p+q-1)!."""
    return Fraction(factorial(p - 1) * factorial(q - 1), factorial(p + q - 1))


def selberg_dim1_beta(a: int, b: int) -> Fraction:
    """One-dimensional Selberg value as a plain Beta integral."""
    return beta(a, b)


def selberg_dim2_beta(a: int, b: int) -> Fraction:
    """Two-dimensional Selberg value at c = 1 from expanding (x - y)^2.

    integral of x^(a-1)(1-x)^(b-1) y^(a-1)(1-y)^(b-1) (x^2 - 2xy + y^2)
    over the unit square = 2 [ B(a+2,b) B(a,b) - B(a+1,b)^2 ].
    """
    return 2 * (beta(a + 2, b) * beta(a, b) - beta(a + 1, b) ** 2)


def direct_power_sum(p: int, b: int) -> int:
    """1^p + 2^p + ... + b^p by direct accumulation."""
    return sum(k**p for k in range(1, b + 1))


def horner_reference(coefficients: list[Fraction], x: Fraction) -> Fraction:
    """Value of sum c_i x^i (ascending coefficients) by Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


def lagrange_coefficients(points: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, ...]:
    """Ascending monomial coefficients of the interpolant, from the Lagrange basis.

    Sums y_i * prod_{j != i} (x - x_j) / (x_i - x_j) over the points, each
    basis polynomial expanded one linear factor at a time; trailing zeros are
    stripped.
    """
    xs = [Fraction(x) for x, _ in points]
    total = [Fraction(0)] * len(points)
    for i, (_, y) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(y)
        for j, xj in enumerate(xs):
            if j != i:
                shifted = [Fraction(0)] + basis  # x * basis
                basis = [s - xj * b for s, b in zip(shifted, basis + [Fraction(0)])]
                scale /= xs[i] - xj
        for power, c in enumerate(basis):
            total[power] += scale * c
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def determinant_by_permutations(matrix: list[list[int]]) -> int:
    """Leibniz expansion: the signed sum over all permutations."""
    size = len(matrix)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        total += (-1) ** inversions * prod(matrix[i][perm[i]] for i in range(size))
    return total


def pfaffian_by_expansion(matrix: list[list[int]]) -> int:
    """Expansion along the first row: Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows/cols 0, j)."""
    size = len(matrix)
    if size == 0:
        return 1
    if size % 2:
        return 0
    total = 0
    for j in range(1, size):
        rest = [k for k in range(1, size) if k != j]
        minor = [[matrix[a][b] for b in rest] for a in rest]
        total += (-1) ** (j + 1) * matrix[0][j] * pfaffian_by_expansion(minor)
    return total


def generic_degrees_by_search(m: int, n: int, d: int) -> set[int]:
    """Nonvanishing degrees of the d-th maximal-minor power, layer by layer.

    Layer c (0 <= c <= d-1) reaches s (0 <= s <= n-1) when a weakly decreasing
    chain of length n with last entry n-1-c-m can put entry s at or above s-n
    and entry s+1 at or below s-m.  The entries up to s are free, so that is
    n-1-c-m <= s-m.  Each reached s gives j = n(m-n) + 1 - s(m-n).
    """
    return {
        n * (m - n) + 1 - s * (m - n)
        for c in range(d)
        for s in range(n)
        if n - 1 - c - m <= s - m
    }


def pfaffian_degrees_by_search(n: int, d: int) -> set[int]:
    """Nonvanishing degrees of the d-th pfaffian power, layer by layer.

    Layer c (0 <= c <= d-1) reaches the third tableau bounds
    ceil((2(n-1) - c) / 2) <= t <= n-1, each giving j = 2(n-t) + 1.
    """
    return {
        2 * (n - t) + 1
        for c in range(d)
        for t in range(max(0, -((c - 2 * (n - 1)) // 2)), n)
    }


def is_layer_index_by_diagrams(
    ideal_partitions: list[tuple[int, ...]], partition: tuple[int, ...], level: int
) -> bool:
    """Layer membership by building truncate(x, c) and conjugate(x) for every member x.

    c is the largest part of the partition.  The pair qualifies when some x
    has truncate(x, c) inside the partition with conjugate(x)[c+1] <= level+1,
    and every such x has conjugate(x)[c+1] = level+1.
    """
    if not ideal_partitions:
        raise ValueError("is_layer_index requires a nonempty family of partitions")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    z = normalize(partition)
    c = part(z, 1)
    column_heights = []
    for x in ideal_partitions:
        x = normalize(x)
        if not contained_in(truncate(x, c), z):
            continue
        height = part(conjugate(x), c + 1)
        if height <= level + 1:
            column_heights.append(height)
    if not column_heights:
        return False
    return all(h == level + 1 for h in column_heights)


def grassmannian_hilbert_function(m: int, n: int, D: int) -> int:
    """Cumulative length of the generic (m, n) family at power D, as a Hilbert function.

    It is the Hilbert function of the Pluecker coordinate ring of G(n, m+n) in
    degree t = D - n: the dimension of the GL(m+n) representation of the
    n x t rectangle, counted by the hook-content formula
    prod (m + n + j - i) / prod (t - j + n - i - 1) over the cells (i, j).
    Zero below D = n.
    """
    t = D - n
    if t < 0:
        return 0
    cells = [(i, j) for i in range(n) for j in range(t)]
    num = prod(m + n + j - i for i, j in cells)
    den = prod(t - j + n - i - 1 for i, j in cells)
    quotient, remainder = divmod(num, den)
    assert remainder == 0, (m, n, D)
    return quotient


def spinor_hilbert_function(n: int, D: int) -> int:
    """Cumulative length of the pfaffian family n at power D, as a Hilbert function.

    It is the Hilbert function of OG(2n, 4n+1) in its spinor embedding, in
    degree t = D - 2n + 1: the dimension of the so(4n+1) representation with
    highest weight t times the spin weight.  In doubled coordinates, with
    a = 2n, L_i = t + 2i - 1 and R_i = 2i - 1 (i = 1..a), the type-B Weyl
    dimension formula reads
        prod L_i / R_i * prod_{i<j} (L_j^2 - L_i^2) / (R_j^2 - R_i^2).
    Zero below D = 2n - 1.
    """
    t = D - 2 * n + 1
    if t < 0:
        return 0
    a = 2 * n
    L = [t + 2 * i - 1 for i in range(1, a + 1)]
    R = [2 * i - 1 for i in range(1, a + 1)]
    pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    num = prod(L) * prod(L[j] ** 2 - L[i] ** 2 for i, j in pairs)
    den = prod(R) * prod(R[j] ** 2 - R[i] ** 2 for i, j in pairs)
    quotient, remainder = divmod(num, den)
    assert remainder == 0, (n, D)
    return quotient
