"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact equality of arbitrary-precision values;
runtime targets are asserted with the stated generous budgets.
"""

import time
from fractions import Fraction
from functools import cache
from math import comb

import pytest

import detmult.maximal_minors
import detmult.pfaffians
from detmult.arith import faulhaber_polynomial
from detmult.cli import main
from detmult.family import LengthClassification
from detmult.maximal_minors import GenericParams
from detmult.multiplicities import (
    ConsistencyError,
    Family,
    build_report,
    selberg_integral,
    slice_polynomial,
)
from detmult.partitions import (
    LayerIndex,
    box_partitions,
    is_layer_index,
    maximal_minor_layers,
    normalize,
    power_ideal_layers,
    weakly_decreasing_tuples,
)
from detmult.pfaffians import PfaffianParams
from detmult.schur import weyl_dimension
from oracles import (
    count_ssyt_backtracking,
    direct_power_sum,
    selberg_dim1_beta,
    selberg_dim2_beta,
)

CATALAN = {m: comb(2 * m, m) // (m + 1) for m in range(2, 9)}

GENERIC_INSTANCES = [(m, 2) for m in range(2, 9)] + [(4, 3), (5, 3)]
PFAFFIAN_INSTANCES = [1, 2, 3]


@cache
def get_report(family: Family):
    return build_report(family)


def announce(number: int, passed: bool, message: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {message}")


def test_criterion_1_catalan_family():
    started = time.perf_counter()
    values = {m: get_report(Family.generic(m, 2)).j_multiplicity for m in range(2, 9)}
    elapsed = time.perf_counter() - started
    ok = all(values[m] == CATALAN[m] for m in values)
    shown = {m: int(v) for m, v in values.items()}
    announce(1, ok and elapsed < 5.0, f"Catalan family n=2, m=2..8 in {elapsed:.2f}s: {shown}")
    assert values == {m: Fraction(c) for m, c in CATALAN.items()}
    assert elapsed < 5.0


def test_criterion_2_example_values_five_ways():
    started = time.perf_counter()
    ok = True
    for (m, n), expected in [((4, 3), 462), ((5, 3), 6006)]:
        report = get_report(Family.generic(m, n))
        routes = [report.j_multiplicity] + list(report.oracles.values())
        assert len(routes) == 5
        ok = ok and all(r == expected for r in routes) and report.all_agree
        assert all(r == expected for r in routes), (m, n, routes)
    elapsed = time.perf_counter() - started
    announce(2, ok and elapsed < 30.0, f"462 and 6006 via five exact routes in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_3_nonvanishing_degrees_and_classification():
    m43 = GenericParams(4, 3)
    m53 = GenericParams(5, 3)
    ok = True
    for d in range(3, 7):
        ok = ok and m43.nonvanishing_degrees(d) == {2, 3, 4}
        ok = ok and m53.nonvanishing_degrees(d) == {3, 5, 7}
    for params in (m43, m53):
        for d in range(1, 7):
            for j in range(0, params.finite_ext_degree + 2):
                cls = params.length_classification(j, d)
                finite_expected = j == params.finite_ext_degree and d >= params.n
                ok = ok and (cls is LengthClassification.FINITE_NONZERO) == finite_expected
    announce(3, ok, "degree sets {2,3,4} / {3,5,7} and finite classification at j = n(m-n)+1, d >= n")
    assert ok


def test_criterion_4_pfaffian_family_five_ways():
    started = time.perf_counter()
    import detmult.arith as arith

    expected_n3 = arith.factorial(21) * 2 * 24 // (
        arith.factorial(7) * arith.factorial(9) * arith.factorial(11)
    )
    assert expected_n3 == 33592
    expected = {1: 1, 2: 12, 3: expected_n3}
    ok = True
    for n in PFAFFIAN_INSTANCES:
        report = get_report(Family.pfaffian(n))
        routes = [report.j_multiplicity] + list(report.oracles.values())
        assert len(routes) == 5
        ok = ok and all(r == expected[n] for r in routes) and report.all_agree
        assert all(r == expected[n] for r in routes), (n, routes)
    elapsed = time.perf_counter() - started
    announce(4, ok and elapsed < 300.0, f"pfaffian n=1,2,3 -> 1, 12, 33592 five ways in {elapsed:.2f}s")
    assert elapsed < 300.0


def test_criterion_5_j_equals_epsilon_everywhere():
    ok = True
    for m, n in GENERIC_INSTANCES:
        report = get_report(Family.generic(m, n))
        ok = ok and report.epsilon_multiplicity == report.j_multiplicity
        assert report.epsilon_multiplicity == report.j_multiplicity, (m, n)
    for n in PFAFFIAN_INSTANCES:
        report = get_report(Family.pfaffian(n))
        ok = ok and report.epsilon_multiplicity == report.j_multiplicity
        assert report.epsilon_multiplicity == report.j_multiplicity, n
    announce(5, ok, "epsilon-multiplicity equals j-multiplicity for every instance of criteria 1-4")


def test_criterion_6_polynomiality_validation(capsys, monkeypatch):
    # positive direction: every tested instance passes its two held-out nodes
    for m, n in GENERIC_INSTANCES:
        slice_polynomial(Family.generic(m, n))
    for n in PFAFFIAN_INSTANCES:
        slice_polynomial(Family.pfaffian(n))
    # negative control: a perturbed enumeration must raise and exit 3
    real = detmult.maximal_minors.slice_length

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if d == 8 else value

    monkeypatch.setattr(detmult.maximal_minors, "slice_length", perturbed)
    with pytest.raises(ConsistencyError):
        slice_polynomial(Family.generic(3, 2))
    code = main(["multiplicity", "--generic", "-m", "3", "-n", "2"])
    capsys.readouterr()
    monkeypatch.undo()
    with capsys.disabled():
        announce(6, code == 3, "held-out validation nodes pass; perturbed build exits 3")
    assert code == 3


def test_criterion_7_oracle_equivalence_suites():
    started = time.perf_counter()

    for n in range(1, 5):
        for total in range(0, 7):
            for shape in box_partitions(total, n, total):
                assert weyl_dimension(shape, n) == count_ssyt_backtracking(shape, n)

    for n in range(1, 5):
        for p in range(1, n + 1):
            for d in range(1, 6):
                family = box_partitions(p * d, n, d)
                via_definition = set()
                for level in range(n):
                    for z1 in range(d):
                        for rest in weakly_decreasing_tuples(n - 1, z1):
                            z = normalize((z1,) + rest)
                            if is_layer_index(family, z, level):
                                via_definition.add(LayerIndex(z, level))
                assert via_definition == set(power_ideal_layers(n, p, d))
    for n in range(1, 5):
        for d in range(1, 6):
            assert set(power_ideal_layers(n, n, d)) == set(maximal_minor_layers(n, d))

    for p in range(0, 9):
        poly = faulhaber_polynomial(p)
        for b in range(0, 51):
            assert poly(b) == direct_power_sum(p, b)

    for m, n in GENERIC_INSTANCES:
        family = Family.generic(m, n)
        for d in range(2, 9):
            assert family.slice_length(d) == family.cumulative_length(d) - family.cumulative_length(d - 1)
    for n in PFAFFIAN_INSTANCES:
        family = Family.pfaffian(n)
        for d in range(2, 9):
            assert family.slice_length(d) == family.cumulative_length(d) - family.cumulative_length(d - 1)

    for m in range(2, 6):
        params = GenericParams(m, 1)
        for d in range(1, 8):
            assert detmult.maximal_minors.slice_length(params, d) == comb(d + m - 2, m - 1)
    pf1 = PfaffianParams(1)
    for d in range(1, 8):
        assert detmult.pfaffians.slice_length(pf1, d) == d * (d + 1) // 2

    elapsed = time.perf_counter() - started
    announce(7, elapsed < 60.0, f"oracle-equivalence property suites in {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_8_selberg_checks():
    ok = selberg_integral(1, 3, 2, 1) == Fraction(1, 12)
    ok = ok and selberg_integral(1, 3, 5, 2) == Fraction(1, 105)
    for m in range(3, 7):
        ok = ok and selberg_integral(1, 3, m - 1, 1) == Fraction(2, m**3 - m)
    for a in range(1, 5):
        for b in range(1, 5):
            ok = ok and selberg_integral(1, a, b, 1) == selberg_dim1_beta(a, b)
            ok = ok and selberg_integral(2, a, b, 1) == selberg_dim2_beta(a, b)
    announce(8, ok, "Selberg spot values and brute-force integration agreement")
    assert ok
