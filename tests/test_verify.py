import pytest

import detmult.maximal_minors
import detmult.multiplicities
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
