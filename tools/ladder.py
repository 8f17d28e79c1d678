"""Time the fixed performance ladder on a base revision and on the working tree.

    python3 tools/ladder.py --base 87bf104 --repeats 3 > BENCH_6.json

``git archive`` extracts ``src/`` of the base revision into a temporary
directory; a copy of the working tree's ``src/`` without its ``__pycache__``
directories is the other side.  Every measurement runs in a fresh
interpreter with ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile
detmult from source in every process, as ``bench/run.py`` does on a fresh
checkout, while the standard library keeps its installed bytecode.  The two
sides alternate which goes first.
Library rows time one call after import: ``build_report(family)``, or
``slice_length`` at the k+2 nodes ``build_report`` evaluates.  CLI rows time
the whole ``python -m detmult.cli`` process, start-up included.  A side that
exceeds --timeout on a row is not run on that row again.  The JSON record
goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (row name, family spec, mode): mode "report" or "nodes"; CLI rows carry argv.
LIBRARY_ROWS = [
    ("build_report generic(5,3)", ["generic", 5, 3], "report"),
    ("build_report generic(8,4)", ["generic", 8, 4], "report"),
    ("generic(6,5), nodes", ["generic", 6, 5], "nodes"),
    ("generic(12,4), nodes", ["generic", 12, 4], "nodes"),
    ("build_report pfaffian(3)", ["pfaffian", 3], "report"),
    ("build_report pfaffian(4)", ["pfaffian", 4], "report"),
    ("pfaffian(5), nodes", ["pfaffian", 5], "nodes"),
    ("generic(20,8), nodes", ["generic", 20, 8], "nodes"),
    ("generic(16,10), nodes", ["generic", 16, 10], "nodes"),
    ("generic(30,6), nodes", ["generic", 30, 6], "nodes"),
    ("pfaffian(6), nodes", ["pfaffian", 6], "nodes"),
    ("pfaffian(7), nodes", ["pfaffian", 7], "nodes"),
]
CLI_ROWS = [
    ("CLI schur-dim --weight 9,7,5,3,1,0 --dim 8",
     ["schur-dim", "--weight", "9,7,5,3,1,0", "--dim", "8", "--no-timing"]),
    ("CLI multiplicity --generic -m 10 -n 3",
     ["multiplicity", "--generic", "-m", "10", "-n", "3", "--no-timing"]),
    ("CLI verify --quick", ["verify", "--quick", "--no-timing"]),
    ("CLI verify", ["verify", "--no-timing"]),
    ("CLI verify --generic-max-m 12 --pfaffian-max-n 4",
     ["verify", "--generic-max-m", "12", "--pfaffian-max-n", "4", "--no-timing"]),
]

CHILD = """
import json, sys, time
from detmult import Family, build_report
spec, mode = json.loads(sys.argv[1])
family = getattr(Family, spec[0])(*spec[1:])
t0 = time.perf_counter()
if mode == "report":
    build_report(family)
else:
    d0 = family.first_finite_power
    for d in range(d0, d0 + family.ring_dimension + 2):
        family.slice_length(d)
print(time.perf_counter() - t0)
"""


def measure(src: Path, row: tuple, timeout: float) -> float | None:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)  # a cache kept elsewhere would be read too
    if len(row) == 3:
        argv = [sys.executable, "-c", CHILD, json.dumps([row[1], row[2]])]
    else:
        argv = [sys.executable, "-m", "detmult.cli", *row[1]]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{row[0]} failed under {src}: {proc.stderr}")
    return float(proc.stdout) if len(row) == 3 else wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per measurement")
    args = parser.parse_args()
    rows = LIBRARY_ROWS + CLI_ROWS
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base" / "src", "change": Path(tmp) / "change" / "src"}
        sides["base"].parent.mkdir()
        archive = subprocess.run(["git", "archive", args.base, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", sides["base"].parent], input=archive.stdout, check=True)
        shutil.copytree(ROOT / "src", sides["change"], ignore=shutil.ignore_patterns("__pycache__"))
        times = {name: {row[0]: [] for row in rows} for name in sides}
        for repeat in range(args.repeats):
            order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
            for row in rows:
                for name in order:
                    runs = times[name][row[0]]
                    if None not in runs:
                        runs.append(measure(sides[name], row, args.timeout))
    out = []
    for row in rows:
        entry = {"row": row[0]}
        for name in sides:
            runs = times[name][row[0]]
            if None in runs:
                entry[name] = f"over {args.timeout:g} s (not finished)"
            else:
                entry[name] = {"median_s": statistics.median(runs), "runs_s": runs}
        if all(isinstance(entry[name], dict) for name in sides):
            entry["speedup"] = entry["base"]["median_s"] / entry["change"]["median_s"]
        out.append(entry)
    record = {
        "command": f"python3 tools/ladder.py --base {args.base} --repeats {args.repeats} --timeout {args.timeout:g}",
        "base": args.base,
        "change": "working tree",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "rows": out,
    }
    json.dump(record, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
