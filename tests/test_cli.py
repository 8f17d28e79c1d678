import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import detmult.cli
import detmult.maximal_minors
import detmult.multiplicities
import detmult.verify
from detmult.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args):
    """Run a child interpreter that imports detmult from this checkout's src."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert code == 0, err
    return json.loads(out)


def test_schur_dim(capsys):
    record = run_json(capsys, "schur-dim", "--weight", "2,1,0", "--dim", "3")
    assert record["schema_version"] == "detmult/1"
    assert record["command"] == "schur-dim"
    assert record["results"]["dimension"] == "8"
    assert "timing_ms" not in record


def test_schur_dim_standard(capsys):
    record = run_json(capsys, "schur-dim", "--weight", "1,0", "--dim", "2")
    assert record["results"]["dimension"] == "2"


def test_schur_dim_rejects_increasing_weight(capsys):
    code, _, err = run_cli(capsys, "schur-dim", "--weight", "1,2", "--dim", "2")
    assert code == 2
    assert "error" in err


def test_schur_dim_rejects_malformed_weight(capsys):
    code, _, _ = run_cli(capsys, "schur-dim", "--weight", "1,x", "--dim", "2")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_ext_length_slice(capsys):
    record = run_json(
        capsys, "ext-length", "--generic", "-m", "3", "-n", "2", "--slice", "-d", "3"
    )
    assert record["results"]["length"] == "9"
    classifications = {
        row["degree"]: row["classification"] for row in record["results"]["classifications"]
    }
    assert classifications == {"2": "infinite", "3": "finite-nonzero"}


def test_ext_length_cumulative_pfaffian(capsys):
    record = run_json(
        capsys, "ext-length", "--pfaffian", "-n", "2", "--cumulative", "-D", "3"
    )
    assert record["results"]["length"] == "1"
    assert record["results"]["local_cohomology_degree"] == "5"


def test_ext_length_requires_rectangular(capsys):
    code, _, err = run_cli(
        capsys, "ext-length", "--generic", "-m", "2", "-n", "2", "--slice", "-d", "3"
    )
    assert code == 2
    assert "m > n" in err


def test_ext_length_requires_power_flag(capsys):
    code, _, _ = run_cli(capsys, "ext-length", "--generic", "-m", "3", "-n", "2", "--slice")
    assert code == 2


@pytest.mark.parametrize("mode, flag", [("--slice", "-D"), ("--cumulative", "-d")])
def test_ext_length_refuses_the_other_modes_power(capsys, mode, flag):
    code, out, err = run_cli(
        capsys, "ext-length", "--generic", "-m", "3", "-n", "2", mode, "-d", "3", "-D", "3"
    )
    assert code == 2
    assert out == ""
    assert f"error: {flag} only applies to" in err


def test_multiplicity_generic(capsys):
    record = run_json(capsys, "multiplicity", "--generic", "-m", "4", "-n", "3")
    results = record["results"]
    assert results["j_multiplicity"] == "462"
    assert results["epsilon_multiplicity"] == "462"
    assert results["all_agree"] is True
    assert results["oracles"]["grassmannian_degree"] == "462"
    assert results["local_cohomology_degree"] == "8"


def test_multiplicity_generic_32(capsys):
    record = run_json(capsys, "multiplicity", "--generic", "-m", "3", "-n", "2")
    assert record["results"]["j_multiplicity"] == "5"
    # coefficients ascending, exact strings
    assert record["results"]["slice_polynomial"] == ["0", "0", "0", "-1/24", "0", "1/24"]


def test_multiplicity_pfaffian(capsys):
    record = run_json(capsys, "multiplicity", "--pfaffian", "-n", "2")
    assert record["results"]["j_multiplicity"] == "12"
    assert record["results"]["all_agree"] is True


def test_multiplicity_square_matrix_allowed(capsys):
    record = run_json(capsys, "multiplicity", "--generic", "-m", "2", "-n", "2")
    assert record["results"]["j_multiplicity"] == "2"


def test_multiplicity_round_trip(capsys):
    record = run_json(capsys, "multiplicity", "--generic", "-m", "3", "-n", "2")
    results = record["results"]
    assert Fraction(results["j_multiplicity"]) == Fraction(5)
    coeffs = [Fraction(c) for c in results["slice_polynomial"]]
    assert coeffs == [0, 0, 0, Fraction(-1, 24), 0, Fraction(1, 24)]
    d = 7
    assert sum(c * d**i for i, c in enumerate(coeffs)) == 686


def test_multiplicity_internal_error_exits_3(capsys, monkeypatch):
    real = detmult.maximal_minors.slice_length

    def perturbed(params, d):
        value = real(params, d)
        return value + 1 if d == 8 else value  # first held-out node for (3, 2)

    monkeypatch.setattr(detmult.maximal_minors, "slice_length", perturbed)
    code, _, err = run_cli(capsys, "multiplicity", "--generic", "-m", "3", "-n", "2")
    assert code == 3
    assert "consistency" in err


def test_non_integral_oracle_exits_3_under_optimize():
    # assert statements vanish under -O; the integrality check must not
    script = (
        "import math, sys\n"
        "import detmult.multiplicities as mu\n"
        "from detmult.cli import main\n"
        "mu.factorial = lambda k: math.factorial(k) + (k == 6)  # 6! feeds closed_form_generic(3, 2)\n"
        "sys.exit(main(['multiplicity', '--generic', '-m', '3', '-n', '2', '--no-timing']))\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "closed_form_generic(3, 2) is not an integer" in proc.stderr


@pytest.mark.parametrize(
    "module,argv,label",
    [
        ("maximal_minors", ["--generic", "-m", "3", "-n", "2"], "generic-maximal-minors(m=3, n=2) slice at d=2"),
        ("pfaffians", ["--pfaffian", "-n", "2"], "sub-maximal-pfaffians(n=2) slice at d=3"),
    ],
)
def test_inexact_slice_kernel_exits_3_under_optimize(module, argv, label):
    # the kernel's final division is checked with divmod, which -O keeps; at the
    # first finite power the slice is 1, so the numerator is the true denominator
    script = (
        "import sys\n"
        f"import detmult.{module} as kernel\n"
        "from detmult.cli import main\n"
        "real = kernel._moment_denominator\n"
        "kernel._moment_denominator = lambda *args: real(*args) + 1\n"
        f"sys.exit(main(['multiplicity', *{argv!r}, '--no-timing']))\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert f"{label}: " in proc.stderr and "is not an integer" in proc.stderr, proc.stderr


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, "multiplicity", "--generic", "-m", "3", "-n", "2", "--no-timing")
    _, second, _ = run_cli(capsys, "multiplicity", "--generic", "-m", "3", "-n", "2", "--no-timing")
    assert first == second


def test_timing_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "schur-dim", "--weight", "1,0", "--dim", "2")
    assert code == 0
    record = json.loads(out)
    assert isinstance(record["timing_ms"], int)


def test_sweep_json(capsys):
    record = run_json(
        capsys, "sweep", "--generic", "-m", "3", "-n", "2", "--d-from", "1", "--d-to", "5"
    )
    rows = record["results"]["rows"]
    assert [(r["d"], r["slice_length"], r["cumulative_length"]) for r in rows] == [
        ("1", "0", "0"),
        ("2", "1", "1"),
        ("3", "9", "10"),
        ("4", "40", "50"),
        ("5", "125", "175"),
    ]


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--pfaffian", "-n", "1", "--d-from", "1", "--d-to", "4",
        "--format", "csv", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,params,d,slice_length,cumulative_length"
    assert lines[1:] == [
        "sub-maximal-pfaffians,n=1,1,1,1",
        "sub-maximal-pfaffians,n=1,2,3,4",
        "sub-maximal-pfaffians,n=1,3,6,10",
        "sub-maximal-pfaffians,n=1,4,10,20",
    ]


def test_sweep_csv_empty_range_is_header_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--generic", "-m", "3", "-n", "2", "--d-from", "5", "--d-to", "4",
        "--format", "csv", "--no-timing",
    )
    assert code == 0
    assert out == "family,params,d,slice_length,cumulative_length\n"


def test_sweep_starts_midway(capsys):
    record = run_json(
        capsys, "sweep", "--generic", "-m", "3", "-n", "2", "--d-from", "3", "--d-to", "4"
    )
    rows = record["results"]["rows"]
    assert rows[0]["cumulative_length"] == "10"
    assert rows[1]["cumulative_length"] == "50"


@pytest.mark.parametrize(
    "d_from, d_to, message",
    [
        ("0", "4", "error: --d-from expects a power >= 1, got 0\n"),
        ("1", "-1", "error: --d-to expects a power >= 0, got -1\n"),
    ],
)
def test_sweep_bound_names_the_flag(capsys, d_from, d_to, message):
    code, out, err = run_cli(
        capsys, "sweep", "--generic", "-m", "3", "-n", "2", "--d-from", d_from, "--d-to", d_to
    )
    assert (code, out, err) == (2, "", message)


def test_csv_rejected_outside_sweep(capsys):
    code, _, err = run_cli(
        capsys, "multiplicity", "--generic", "-m", "3", "-n", "2", "--format", "csv"
    )
    assert code == 2
    assert "csv" in err


def test_refused_format_does_no_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the format was checked")

    monkeypatch.setattr(detmult.cli, "build_report", refuse)
    monkeypatch.setattr(detmult.verify, "run_checks", refuse)
    message = "error: --format csv is only available for sweep\n"
    code, out, err = run_cli(
        capsys, "multiplicity", "--generic", "-m", "3", "-n", "2", "--format", "csv"
    )
    assert (code, out, err) == (2, "", message)
    monkeypatch.setenv("DETMULT_FORMAT", "csv")
    code, out, err = run_cli(capsys, "verify", "--quick")
    assert (code, out, err) == (2, "", message)


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--generic", "-m", "3", "-n", "2", "--d-from", "1", "--d-to", "3",
        "--format", "table", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d", "slice_length", "cumulative_length"]
    assert lines[3].split() == ["3", "9", "10"]


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--no-timing")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["failed"] == "0"
    assert all(check["passed"] for check in record["results"]["checks"])


def test_verify_perturbed_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(detmult.multiplicities, "closed_form_generic", lambda m, n: 0)
    code, out, _ = run_cli(capsys, "verify", "--quick", "--no-timing")
    assert code == 1
    record = json.loads(out)
    assert record["results"]["failed"] != "0"
    failing = [c for c in record["results"]["checks"] if not c["passed"]]
    assert failing and all(c["detail"] for c in failing)


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("DETMULT_FORMAT", "table")
    code, out, _ = run_cli(capsys, "schur-dim", "--weight", "1,0", "--dim", "2", "--no-timing")
    assert code == 0
    assert "dimension" in out and "{" not in out


def test_format_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("DETMULT_FORMAT", "table")
    record = run_json(capsys, "schur-dim", "--weight", "1,0", "--dim", "2", "--format", "json")
    assert record["results"]["dimension"] == "2"


def test_invalid_format_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("DETMULT_FORMAT", "yaml")
    code, _, err = run_cli(capsys, "schur-dim", "--weight", "1,0", "--dim", "2")
    assert code == 2
    assert "format" in err


def test_jobs_env_accepted(capsys, monkeypatch):
    monkeypatch.setenv("DETMULT_JOBS", "2")
    record = run_json(capsys, "multiplicity", "--pfaffian", "-n", "1")
    assert record["results"]["j_multiplicity"] == "1"


def test_verify_budget_enforced(capsys):
    code, _, err = run_cli(capsys, "verify", "--pfaffian-max-n", "9")
    assert code == 2
    assert "budget" in err


def test_jobs_flag_accepted(capsys):
    record = run_json(
        capsys, "multiplicity", "--generic", "-m", "3", "-n", "2", "--jobs", "2"
    )
    assert record["results"]["j_multiplicity"] == "5"


@pytest.mark.parametrize(
    "flags, env", [(["--jobs", "0"], None), ([], "many"), (["--jobs", "3"], "-1")]
)
def test_jobs_is_ignored(capsys, monkeypatch, flags, env):
    argv = ["sweep", "--pfaffian", "-n", "2", "--d-from", "1", "--d-to", "5", "--no-timing"]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    if env is not None:
        monkeypatch.setenv("DETMULT_JOBS", env)
    assert run_cli(capsys, *argv, *flags) == plain


def test_non_integer_jobs_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "schur-dim", "--weight", "1,0", "--dim", "2", "--jobs", "x")
    assert (code, out) == (2, "")
    assert "--jobs: invalid int value" in err


def test_pfaffian_rejects_m_flag(capsys):
    code, _, err = run_cli(
        capsys, "multiplicity", "--pfaffian", "-m", "3", "-n", "2"
    )
    assert code == 2
    assert "-m" in err


def test_module_entry_point_subprocess():
    proc = run_python("-m", "detmult.cli", "multiplicity", "--pfaffian", "-n", "1", "--no-timing")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["results"]["j_multiplicity"] == "1"


STARTUP_PROBE = """
import sys
import detmult.cli
print(sorted(m for m in ("concurrent.futures", "multiprocessing", "detmult.verify") if m in sys.modules))
import concurrent.futures
from detmult import maximal_minors, pfaffians
print(maximal_minors.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)
print(pfaffians.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)
try:
    maximal_minors.NoSuchName
except AttributeError:
    print("AttributeError")
"""


def test_startup_loads_neither_the_pool_nor_the_verify_suite():
    # every subcommand is a fresh process, so what importing the CLI loads is
    # paid on every call; the pool class still resolves on first access
    proc = run_python("-c", STARTUP_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "True", "AttributeError"]
