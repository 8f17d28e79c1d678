import re

import pytest

import detmult.arith
import detmult.maximal_minors
import detmult.multiplicities
import detmult.partitions
import detmult.pfaffians
from detmult.verify import CheckResult, count_semistandard_tableaux, run_checks
from oracles import count_ssyt_backtracking


def test_full_suite_passes():
    checks = run_checks(generic_max_m=5, pfaffian_max_n=2)
    assert checks
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert all(c.detail == "" for c in checks if c.passed)


def test_quick_suite_passes():
    checks = run_checks(quick=True)
    assert all(c.passed for c in checks)


def test_check_names_are_unique():
    names = [c.name for c in run_checks(quick=True)]
    assert len(names) == len(set(names))


def test_gt_oracle_matches_backtracking():
    for shape, n in [((2, 1), 3), ((3, 1), 4), ((2, 2), 2), ((4,), 3), ((1, 1, 1), 3)]:
        assert count_semistandard_tableaux(shape, n) == count_ssyt_backtracking(shape, n)


def test_perturbed_build_is_flagged(monkeypatch):
    # negative control: a wrong closed form must fail the oracle agreement
    monkeypatch.setattr(
        detmult.multiplicities, "closed_form_generic", lambda m, n: 10**9
    )
    checks = run_checks(quick=True)
    failed = [c for c in checks if not c.passed]
    assert failed
    assert any(c.name == "five-way-oracle-agreement" for c in failed)
    assert all(c.detail for c in failed)


def test_broken_enumeration_is_reported_not_raised(monkeypatch):
    # a failed held-out node must become a failing check, never a crash
    real = detmult.maximal_minors.slice_length

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if d == 8 else value

    monkeypatch.setattr(detmult.maximal_minors, "slice_length", perturbed)
    checks = run_checks(quick=True)
    failed = {c.name for c in checks if not c.passed}
    assert "slice-polynomial-held-out-validation" in failed


def test_check_result_shape():
    result = CheckResult("demo", False, "expected 1, got 2")
    assert not result.passed
    assert "expected" in result.detail


def test_first_disagreement_is_reported(monkeypatch):
    # the detail names the first failing shape in loop order, not the last
    real = detmult.maximal_minors.slice_length

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if params.n == 1 and d == 3 else value

    monkeypatch.setattr(detmult.maximal_minors, "slice_length", perturbed)
    detail = {c.name: c.detail for c in run_checks(quick=True)}["variable-ideal-identity-n1"]
    assert "m=2" in detail and "d=3" in detail, detail


@pytest.mark.parametrize(
    "module,check",
    [(detmult.maximal_minors, "telescoping-generic"), (detmult.pfaffians, "telescoping-pfaffian")],
)
def test_wrong_slice_kernel_fails_telescoping(monkeypatch, module, check):
    # the enumeration reference does not go through slice_length, so the
    # kernel's cumulative differences disagree with it at the wrong power
    real = module.slice_length

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if d == 5 else value

    monkeypatch.setattr(module, "slice_length", perturbed)
    result = {c.name: c for c in run_checks(quick=True)}[check]
    assert not result.passed
    assert "d=5" in result.detail, result.detail


def test_interpolation_roundtrip_fails_on_mirrored_abscissae(monkeypatch):
    # an interpolate that reads |x| agrees with the true one at x >= 0 only,
    # so the check must sample negative abscissae to catch it
    real = detmult.arith.interpolate
    monkeypatch.setattr(detmult.arith, "interpolate", lambda points: real([(abs(x), y) for x, y in points]))
    result = {c.name: c for c in run_checks(quick=True)}["interpolation-roundtrip"]
    assert not result.passed
    assert result.detail.startswith("expected RationalPolynomial("), result.detail


def test_crash_inside_a_check_is_that_checks_failure(monkeypatch):
    # a kernel that raises ConsistencyError fails the checks that reach it,
    # each named with the error as its detail, and the rest of the suite runs
    real = detmult.pfaffians.determinant
    monkeypatch.setattr(detmult.pfaffians, "determinant", lambda matrix: real(matrix) + 1)
    checks = run_checks(quick=True)
    failed = {c.name: c.detail for c in checks if not c.passed}
    assert "telescoping-pfaffian" in failed
    assert all("is not a perfect square" in detail for detail in failed.values()), failed
    assert checks[-1].name == "selberg-vs-expansion" and checks[-1].passed


def test_degree_check_compares_the_whole_pfaffian_set(monkeypatch):
    # from the first finite power on, a set holding only the top degree keeps
    # parity and bounds, so only the comparison with the full set catches it
    real = detmult.pfaffians.PfaffianParams.nonvanishing_degrees

    def top_only(self, d):
        return frozenset({2 * self.n + 1}) if d >= self.first_finite_power else real(self, d)

    monkeypatch.setattr(detmult.pfaffians.PfaffianParams, "nonvanishing_degrees", top_only)
    for quick in (False, True):
        result = {c.name: c for c in run_checks(quick=quick)}["degree-parity-pfaffian"]
        assert not result.passed
        assert result.detail.startswith("expected [3, 5]"), result.detail


@pytest.mark.parametrize("shift", [1, -1])
def test_layer_level_off_by_one_fails_the_layer_check(monkeypatch, shift):
    # the check reads each candidate's level from layer_level alone, so a
    # level one off must disagree with the closed form at the first shape
    real = detmult.partitions.layer_level
    monkeypatch.setattr(detmult.partitions, "layer_level", lambda family, z: real(family, z) + shift)
    result = {c.name: c for c in run_checks(quick=True)}["layer-definition-vs-closed-form"]
    assert not result.passed
    assert re.fullmatch(r"expected \[.*\], got \[.*\] at n=1, p=1, d=1", result.detail), result.detail


def test_perturbed_polynomial_evaluation_fails_faulhaber(monkeypatch):
    # the direct sums never go through RationalPolynomial.__call__, so a wrong
    # value at one argument must show as a disagreement there
    real = detmult.arith.RationalPolynomial.__call__

    def perturbed(self, x):
        value = real(self, x)
        return value + 1 if x == 37 else value

    monkeypatch.setattr(detmult.arith.RationalPolynomial, "__call__", perturbed)
    result = {c.name: c for c in run_checks(quick=True)}["faulhaber-vs-direct-sum"]
    assert not result.passed
    assert result.detail == "expected 37, got 38 at p=0, b=37", result.detail
