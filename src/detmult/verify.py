"""Cross-check suite: every computation route replayed against an independent oracle.

Each check compares two genuinely different routes to the same value (formula
vs. direct enumeration, definition vs. closed form, interpolation vs. product
formulas) over configurable parameter ranges and reports pass/fail together
with the first disagreeing pair of values.  The CLI ``verify`` subcommand is a
thin wrapper around ``run_checks``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from typing import Callable, Iterator

from . import arith, multiplicities, partitions, pfaffians, schur
from .family import Family, LengthClassification

__all__ = ["CheckResult", "count_semistandard_tableaux", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class _Suite:
    checks: list[CheckResult] = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail if not passed else ""))

    def run(self, name: str, failures: Iterator[str]) -> None:
        """Record the first detail the check body yields, or a pass if it yields none.

        Check bodies are generators, so nothing after the first disagreement
        is computed.
        """
        detail = next(failures, None)
        self.record(name, detail is None, detail or "")


def count_semistandard_tableaux(shape: tuple[int, ...], n: int) -> int:
    """Semistandard tableaux of the given shape with entries in 1..n.

    Counted through the branching recursion: fillings correspond to chains of
    partitions mu(1) <= mu(2) <= ... <= mu(n) = shape in which consecutive
    partitions interlace (horizontal strips).  Independent of the Weyl product
    formula it is checked against.
    """
    top = tuple(shape) + (0,) * (n - len(shape))

    def chains(row: tuple[int, ...]) -> int:
        if len(row) == 1:
            return 1
        total = 0
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        for nxt in product(*ranges):
            if all(nxt[i] >= nxt[i + 1] for i in range(len(nxt) - 1)):
                total += chains(nxt)
        return total

    return chains(top)


def _partitions_up_to(max_size: int, max_parts: int):
    for total in range(max_size + 1):
        yield from partitions.box_partitions(total, max_parts, total)


# ---------------------------------------------------------------- arithmetic


def _check_arith(suite: _Suite, quick: bool) -> None:
    def faulhaber():
        for p in range(0, 9):
            poly = arith.faulhaber_polynomial(p)
            acc = 0
            for b in range(1, 51):
                acc += b**p
                if poly(b) != acc:
                    yield f"expected {acc}, got {poly(b)} at p={p}, b={b}"

    suite.run("faulhaber-vs-direct-sum", faulhaber())

    bad = [k for k in range(3, 21, 2) if arith.bernoulli(k) != 0]
    suite.record("bernoulli-odd-vanishing", not bad, f"nonzero at k={bad}")

    hand = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 6), 3: Fraction(0), 4: Fraction(-1, 30)}
    mism = {k: arith.bernoulli(k) for k in hand if arith.bernoulli(k) != hand[k]}
    suite.record("bernoulli-small-values", not mism, f"expected {hand}, got {mism}")

    # both sampled checks draw from this one generator, in this order
    rng = random.Random(20240501)

    def roundtrip():
        for _ in range(10 if quick else 25):
            degree = rng.randrange(0, 11)
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] if coeffs[-1] != 0 else Fraction(1)
            poly = arith.RationalPolynomial(coeffs)
            back = arith.interpolate([(x, poly(x)) for x in range(poly.degree + 1)])
            if back != poly:
                yield f"expected {poly}, got {back}"

    suite.run("interpolation-roundtrip", roundtrip())

    def range_sums():
        for _ in range(10 if quick else 20):
            degree = rng.randrange(0, 7)
            poly = arith.RationalPolynomial(
                [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(degree + 1)]
            )
            a = rng.randrange(-5, 6)
            summed = arith.poly_range_sum(poly, a)
            direct = 0
            for b in range(a, a + 12):
                direct += poly(b)
                if summed(b) != direct:
                    yield f"expected {direct}, got {summed(b)} at a={a}, b={b}"
            if poly:
                want = poly.leading_coefficient / (poly.degree + 1)
                if summed.leading_coefficient != want:
                    yield f"expected lead {want}, got {summed.leading_coefficient}"

    suite.run("range-sum-identity", range_sums())


# ---------------------------------------------------------------- partitions


def _check_partitions(suite: _Suite, quick: bool) -> None:
    def involution():
        for lam in _partitions_up_to(8, 6):
            back = partitions.conjugate(partitions.conjugate(lam))
            if back != lam:
                yield f"expected {lam}, got {back}"

    suite.run("conjugate-involution", involution())

    def truncation():
        for lam in _partitions_up_to(7, 5):
            for c in range(0, 6):
                t = partitions.truncate(lam, c)
                if not partitions.contained_in(t, lam) or any(p > c for p in t):
                    yield f"truncate({lam}, {c}) = {t}"

    suite.run("truncate-bounds", truncation())

    max_n = 2 if quick else 4

    def layer_definition():
        for n in range(1, max_n + 1):
            for p in range(1, n + 1):
                for d in range(1, 6):
                    family = partitions.box_partitions(p * d, n, d)
                    via_def = set()
                    for level in range(n):
                        for z1 in range(d):
                            for rest in partitions.weakly_decreasing_tuples(n - 1, z1):
                                z = partitions.normalize((z1,) + rest)
                                if partitions.is_layer_index(family, z, level):
                                    via_def.add(partitions.LayerIndex(z, level))
                    via_closed = set(partitions.power_ideal_layers(n, p, d))
                    if via_def != via_closed:
                        yield (
                            f"expected {sorted(via_closed)}, got {sorted(via_def)} "
                            f"at n={n}, p={p}, d={d}"
                        )

    suite.run("layer-definition-vs-closed-form", layer_definition())

    def maximal_minor_layers():
        for n in range(1, max_n + 1):
            for d in range(1, 7):
                closed = set(partitions.power_ideal_layers(n, n, d))
                direct = set(partitions.maximal_minor_layers(n, d))
                if closed != direct:
                    yield f"expected {sorted(direct)}, got {sorted(closed)} at n={n}, d={d}"

    suite.run("maximal-minor-layers-coincide", maximal_minor_layers())


# --------------------------------------------------------------------- schur


def _check_schur(suite: _Suite, quick: bool) -> None:
    def tableaux():
        for n in range(1, 3 if quick else 5):
            for lam in _partitions_up_to(6, n):
                expected = count_semistandard_tableaux(lam, n)
                got = schur.weyl_dimension(lam, n)
                if got != expected:
                    yield f"expected {expected}, got {got} at shape={lam}, n={n}"

    suite.run("weyl-vs-semistandard-count", tableaux())

    def invariance():
        rng = random.Random(20240502)
        for _ in range(40):
            length = rng.randrange(1, 6)
            w = tuple(sorted((rng.randrange(-6, 7) for _ in range(length)), reverse=True))
            base = schur.weyl_dimension(w)
            c = rng.randrange(-5, 6)
            if schur.weyl_dimension(schur.shift(w, c)) != base:
                yield f"shift by {c} changed dimension at {w}"
            dual = tuple(-x for x in reversed(w))
            if schur.weyl_dimension(dual) != base:
                yield f"dual weight changed dimension at {w}"

    suite.run("shift-and-duality-invariance", invariance())

    def presentations():
        for m, n in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            for d in range(n, n + 4):
                for eps in partitions.weakly_decreasing_tuples(n - 1, d - n):
                    w = tuple(e + (n - d - m) for e in eps) + (n - d - m,)
                    block_form = schur.embed_weight(w, 0, m)
                    prefix_form = (-m,) * (m - n) + w
                    direct = (d - n,) * (m - n) + eps + (0,)
                    dims = {
                        schur.weyl_dimension(block_form),
                        schur.weyl_dimension(prefix_form),
                        schur.weyl_dimension(direct),
                    }
                    if len(dims) != 1:
                        yield f"presentations disagree: {dims} at m={m}, n={n}, d={d}, eps={eps}"

    suite.run("embedded-weight-presentations-agree", presentations())


# ------------------------------------------------------------------- lengths
#
# Each check below runs unchanged over either family.  Slice lengths are taken
# through Family.slice_length, which resolves the module's slice_length at call
# time.


def _telescoping(families: list[Family], d_max: int) -> Iterator[str]:
    """Differences of the kernel's cumulative lengths equal the enumerated slices."""
    for family in families:
        for d in range(2, d_max + 1):
            expected = family.reference_slice_length(d)
            got = family.cumulative_length(d) - family.cumulative_length(d - 1)
            if got != expected:
                yield f"expected {expected}, got {got} at {family.label}, d={d}"


def _vanishing_floor(families: list[Family], past_first: int) -> Iterator[str]:
    """Slices vanish below the first finite power, are 1 at it and positive after."""
    for family in families:
        first = family.first_finite_power
        for d in range(1, first + past_first + 1):
            val = family.slice_length(d)
            if (d < first and val != 0) or (d >= first and val < 1) or (d == first and val != 1):
                yield f"slice={val} at {family.label}, d={d}"


def _degree_sets(
    families: list[Family],
    d_max: int,
    allowed: Callable[[Family, int], bool],
    flat: bool = False,
) -> Iterator[str]:
    """Every nonvanishing degree satisfies the family's rule, and only the top
    degree is finite nonzero, from the first finite power on.  With flat, the
    degree set from the first finite power on is every degree the rule allows."""
    for family in families:
        top = family.finite_ext_degree
        flat_set = {j for j in range(top + 1) if allowed(family, j)}
        for d in range(1, d_max + 1):
            degrees = family.nonvanishing_degrees(d)
            if not all(allowed(family, j) for j in degrees):
                yield f"structure violated: {sorted(degrees)} at {family.label}, d={d}"
            if flat and d >= family.first_finite_power and degrees != flat_set:
                yield f"expected {sorted(flat_set)}, got {sorted(degrees)} at {family.label}, d={d}"
            cls = family.length_classification(top, d)
            want = (
                LengthClassification.FINITE_NONZERO
                if d >= family.first_finite_power
                else LengthClassification.ZERO
            )
            if cls is not want:
                yield f"expected {want}, got {cls} at {family.label}, d={d}"


def _closed_form_slices(
    families: list[Family], d_max: int, closed_form: Callable[[Family, int], int]
) -> Iterator[str]:
    for family in families:
        for d in range(1, d_max + 1):
            expected = closed_form(family, d)
            got = family.slice_length(d)
            if got != expected:
                yield f"expected {expected}, got {got} at {family.label}, d={d}"


def _check_lengths(suite: _Suite, generic_max_m: int, pfaffian_max_n: int, quick: bool) -> None:
    generic = [
        Family.generic(m, n)
        for n in range(1, 3 if quick else 4)
        for m in range(n + 1, generic_max_m + 1)
    ]
    suite.run("telescoping-generic", _telescoping(generic, 8))
    suite.run("vanishing-floor-generic", _vanishing_floor(generic, 3))
    suite.run(
        "degree-sets-and-classification",
        _degree_sets(
            generic,
            7,
            lambda f, j: (1 - j) % (f.m - f.n) == 0 and 2 <= j <= f.finite_ext_degree,
            flat=True,
        ),
    )

    def monotone():
        for family in generic:
            first = family.first_finite_power
            values = [family.slice_length(d) for d in range(first, first + 8)]
            if any(b < a for a, b in zip(values, values[1:])):
                yield f"not monotone at {family.label}: {values}"

    suite.run("monotonicity-generic", monotone())
    suite.run(
        "variable-ideal-identity-n1",
        _closed_form_slices(
            [Family.generic(m, 1) for m in range(2, min(generic_max_m, 6) + 1)],
            7,
            lambda f, d: comb(d + f.m - 2, f.m - 1),
        ),
    )

    pfaffian = [Family.pfaffian(n) for n in range(1, pfaffian_max_n + 1)]
    suite.run("telescoping-pfaffian", _telescoping(pfaffian, 10))
    suite.run(
        "vanishing-floor-pfaffian",
        _vanishing_floor([Family.pfaffian(n) for n in range(1, max(4, pfaffian_max_n) + 1)], 2),
    )
    suite.run(
        "degree-parity-pfaffian",
        _degree_sets(pfaffian, 8, lambda f, j: j % 2 == 1 and 3 <= j <= f.finite_ext_degree),
    )
    suite.run(
        "triangular-identity-n1",
        _closed_form_slices([Family.pfaffian(1)], 10, lambda f, d: d * (d + 1) // 2),
    )

    def doubled_dominant():
        for family in pfaffian:
            n = family.n
            first = family.first_finite_power
            for d in range(first, first + 3):
                for eps in partitions.weakly_decreasing_tuples(n - 1, d + 1 - 2 * n):
                    w = pfaffians.slice_weight(family, d, eps)
                    pairs_ok = all(w[2 * i] == w[2 * i + 1] for i in range(n))
                    dominant = all(w[i] >= w[i + 1] for i in range(len(w) - 1))
                    if not (pairs_ok and dominant and len(w) == 2 * n + 1):
                        yield f"bad weight {w} at n={n}, d={d}, eps={eps}"

    suite.run("slice-weights-doubled-dominant", doubled_dominant())


# ------------------------------------------------------------ multiplicities


def _check_multiplicities(suite: _Suite, generic_max_m: int, pfaffian_max_n: int, quick: bool) -> None:
    families = [
        Family.generic(m, n)
        for n in range(1, 3 if quick else 4)
        for m in range(n, generic_max_m + 1)
    ] + [Family.pfaffian(n) for n in range(1, pfaffian_max_n + 1)]
    reports: dict[Family, multiplicities.MultiplicityReport] = {}

    def held_out():
        for family in families:
            try:
                reports[family] = multiplicities.build_report(family)
            except multiplicities.ConsistencyError as exc:
                yield str(exc)

    suite.run("slice-polynomial-held-out-validation", held_out())

    def agreement():
        for family, report in reports.items():
            j = report.j_multiplicity
            if not report.all_agree:
                yield f"{family.label}: oracles {report.oracles} vs {j}"
            if report.epsilon_multiplicity != j:
                yield f"{family.label}: epsilon {report.epsilon_multiplicity} != j {j}"
            if j.denominator != 1:
                yield f"{family.label}: non-integral value {j}"

    suite.run("five-way-oracle-agreement", agreement())

    def catalan():
        for m in range(2, 9):
            family = Family.generic(m, 2)
            if family not in reports:
                try:
                    reports[family] = multiplicities.build_report(family)
                except multiplicities.ConsistencyError as exc:
                    yield str(exc)
                    continue
            expected = Fraction(comb(2 * m, m), m + 1)
            got = reports[family].j_multiplicity
            if got != expected:
                yield f"expected {expected}, got {got} at m={m}"

    suite.run("catalan-family", catalan())

    spots = [
        ((1, 3, 2, 1), Fraction(1, 12)),
        ((1, 3, 5, 2), Fraction(1, 105)),
    ] + [((1, 3, m - 1, 1), Fraction(2, m**3 - m)) for m in range(3, 7)]
    mism = [
        (args, multiplicities.selberg_integral(*args), want)
        for args, want in spots
        if multiplicities.selberg_integral(*args) != want
    ]
    suite.record("selberg-spot-values", not mism, f"mismatches: {mism}")

    def selberg_expansion():
        for nv in (1, 2):
            for a in range(1, 5):
                for b in range(1, 5):
                    expected = _selberg_by_expansion(nv, a, b)
                    got = multiplicities.selberg_integral(nv, a, b, 1)
                    if got != expected:
                        yield f"expected {expected}, got {got} at n={nv}, a={a}, b={b}"

    suite.run("selberg-vs-expansion", selberg_expansion())


def _selberg_by_expansion(nv: int, a: int, b: int) -> Fraction:
    """Integrate prod x_i^(a-1)(1-x_i)^(b-1) prod (x_i-x_j)^2 over [0,1]^nv by
    expanding everything into monomials (c = 1 keeps the integrand polynomial)."""

    def poly_mul(p: dict, q: dict) -> dict:
        out: dict = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return out

    one = {(0,) * nv: 1}
    integrand = one
    for i in range(nv):
        xi = {tuple(a - 1 if k == i else 0 for k in range(nv)): 1}
        integrand = poly_mul(integrand, xi)
        onemx = {}
        for j in range(b):
            exp = tuple(j if k == i else 0 for k in range(nv))
            onemx[exp] = comb(b - 1, j) * (-1) ** j
        integrand = poly_mul(integrand, onemx)
    for i in range(nv):
        for j in range(i + 1, nv):
            ei = tuple(1 if k == i else 0 for k in range(nv))
            ej = tuple(1 if k == j else 0 for k in range(nv))
            diff = {ei: 1, ej: -1}
            integrand = poly_mul(integrand, poly_mul(diff, diff))
    total = Fraction(0)
    for exps, coeff in integrand.items():
        term = Fraction(coeff)
        for e in exps:
            term /= e + 1
        total += term
    return total


def run_checks(
    generic_max_m: int = 5,
    pfaffian_max_n: int = 2,
    quick: bool = False,
) -> list[CheckResult]:
    """Run the whole cross-check suite and return one result per check.

    quick mode restricts to families with n <= 2 and shrinks sampled ranges;
    the flags bound the largest generic m and pfaffian n exercised.  The
    desk-scale budget is generic_max_m <= 12 and pfaffian_max_n <= 4 (the
    pfaffian interpolation at n = 4 already walks 38 powers of a ring of
    dimension 36).  Each check reports its first disagreement.
    """
    if generic_max_m < 2 or pfaffian_max_n < 1:
        raise ValueError("ranges too small: need generic_max_m >= 2 and pfaffian_max_n >= 1")
    if generic_max_m > 12 or pfaffian_max_n > 4:
        raise ValueError(
            "ranges exceed the desk-scale budget (generic_max_m <= 12, pfaffian_max_n <= 4)"
        )
    if quick:
        generic_max_m = min(generic_max_m, 4)
        pfaffian_max_n = min(pfaffian_max_n, 2)
    suite = _Suite()
    _check_arith(suite, quick)
    _check_partitions(suite, quick)
    _check_schur(suite, quick)
    _check_lengths(suite, generic_max_m, pfaffian_max_n, quick)
    _check_multiplicities(suite, generic_max_m, pfaffian_max_n, quick)
    return suite.checks
