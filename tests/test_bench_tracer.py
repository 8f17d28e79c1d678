"""The benchmark's tracer still fits the library it patches.

``bench/tracer.py`` wraps module attributes of detmult and calls the
originals positionally (``slice_length(params, d, jobs)``,
``build_report(family, jobs)``).  A library change that removes a patched
name or one of those positional slots breaks ``bench/run.py --trace 1``;
this test breaks with it.
"""

from pathlib import Path

import pytest

from detmult import cli, multiplicities
from detmult.family import Family

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_traced_library_and_cli_ops(tracer, capsys):
    tracer.begin_op(0, "bench.op")
    report = multiplicities.build_report(Family.generic(4, 2))  # the patched attribute, as bench/run.py calls it
    library = tracer.end_op()
    assert report.all_agree
    assert library["slice_calls"] > 0
    assert library["interpolate_s"] > 0
    assert library["range_sum_s"] > 0

    tracer.begin_op(1, "cli.main")
    code = cli.main(["sweep", "--pfaffian", "-n", "2", "--d-from", "1", "--d-to", "4", "--no-timing"])
    sweep = tracer.end_op()
    capsys.readouterr()
    assert code == 0
    assert sweep["slice_calls"] == 4
