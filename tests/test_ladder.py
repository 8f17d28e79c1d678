import importlib.util
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", LADDER)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_spread_reports_inclusive_quartiles():
    runs = [0.5, 0.1, 0.4, 0.2, 0.3]
    assert ladder.spread(runs) == {
        "median_s": 0.3,
        "q1_s": 0.2,
        "q3_s": 0.4,
        "runs_s": runs,
    }
    assert ladder.spread([0.7])["q1_s"] == ladder.spread([0.7])["q3_s"] == 0.7


def test_separated_quartiles_resolve_the_row():
    row = ladder.summarize("demo", {"base": [2.0, 2.1, 2.2, 2.3, 2.4], "change": [1.0, 1.1, 1.2, 1.3, 1.4]}, 300)
    assert row["row"] == "demo"
    assert row["speedup"] == pytest.approx(2.2 / 1.2)
    assert row["unresolved"] is False


def test_overlapping_quartiles_leave_the_row_unresolved():
    # the medians differ by 20%, but the change's q3 (1.2) reaches the base's q1 (1.1)
    row = ladder.summarize("demo", {"base": [0.9, 1.1, 1.2, 1.3, 2.0], "change": [0.8, 0.9, 1.0, 1.2, 1.5]}, 300)
    assert row["speedup"] == pytest.approx(1.2)
    assert row["unresolved"] is True


def test_a_side_that_timed_out_gets_no_verdict():
    row = ladder.summarize("demo", {"base": [1.0, None], "change": [0.5, 0.6]}, 300)
    assert row["base"] == "over 300 s (not finished)"
    assert "speedup" not in row and "unresolved" not in row


@pytest.mark.parametrize("row", [("demo", ["generic", 3, 1], "report"), ("demo", {"quick": True}, "checks")])
def test_library_child_times_one_call(row):
    seconds = ladder.measure(ladder.ROOT / "src", row, timeout=120)
    assert 0 < seconds < 120
