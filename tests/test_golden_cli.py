"""Byte-for-byte pins of the CLI's ``--no-timing`` output.

golden_cli.json holds the stdout, stderr and exit code of every case below as
the CLI printed them when they were pinned.  A change that alters any of them
changes a published record.  To pin a deliberate change, rewrite the file
with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from detmult.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FAMILIES = (["--generic", "-m", "4", "-n", "2"], ["--pfaffian", "-n", "2"])
COMMANDS = (
    ["multiplicity"],
    ["ext-length", "--slice", "-d", "4"],
    ["ext-length", "--cumulative", "-D", "5"],
    ["sweep", "--d-from", "1", "--d-to", "6"],
)
CASES = [
    [cmd[0], *family, *cmd[1:], "--format", fmt, "--no-timing"]
    for cmd in COMMANDS
    for family in FAMILIES
    for fmt in ("json", "table", "csv")
] + [
    ["verify", "--quick", "--no-timing"],
    ["verify", "--quick", "--format", "table", "--no-timing"],
    ["verify", "--no-timing"],
    ["verify", "--generic-max-m", "8", "--pfaffian-max-n", "3", "--no-timing"],
    ["ext-length", "--generic", "-m", "3", "-n", "3", "--slice", "-d", "2", "--no-timing"],
    ["verify", "--quick", "--format", "csv", "--no-timing"],
] + [
    ["schur-dim", "--weight", "2,1,0", "--dim", "3", "--format", fmt, "--no-timing"]
    for fmt in ("json", "table", "csv")
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_cli.py --write")
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
