"""Smoke test of the benchmark itself (about half a minute).

    python3 bench/smoke.py

1. One pass of mult-wide and of cli-mix against expected.json: no op fails.
2. The same passes with one pinned value perturbed: fail_ratio > 0.
3. Traced ops, each run twice: the counts repeat exactly and match the
   seed-commit pins (weyl_calls of generic(12,4), pfaffian(4) and
   generic(120,1); 55 pool spawns per cli-mix pass when os.cpu_count() == 2).

Exits with status 1 at the first failed check.
"""

from __future__ import annotations

import copy
import os
import sys

import run

sys.path.insert(0, str(run.SRC))

from tracer import COUNTS, Tracer  # noqa: E402  (needs detmult on sys.path)


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        sys.exit(1)


def fail_ratio(workload: str, expected: dict) -> float:
    _, results = run.Runner(workload, expected, seed=1).run_pass()
    return sum(not r.ok for r in results) / len(results)


def traced_counts(runner: run.Runner, op) -> dict:
    record = runner.run_op(op).trace["op"]
    return {name: record[name] for name in COUNTS}


def main() -> int:
    expected = run.load_expected()
    for workload in ("mult-wide", "cli-mix"):
        check(fail_ratio(workload, expected) == 0, f"{workload}: no op fails against the pins")

    perturbed = copy.deepcopy(expected)
    pin = perturbed["library"]["generic-maximal-minors(m=30, n=2)"]
    pin["j_multiplicity"] = str(int(pin["j_multiplicity"]) + 1)
    check(fail_ratio("mult-wide", perturbed) > 0, "mult-wide: a perturbed j-multiplicity pin gives fail_ratio > 0")
    perturbed = copy.deepcopy(expected)
    perturbed["cli"][" ".join(run.SWEEP)]["csv"] += "\n"
    check(fail_ratio("cli-mix", perturbed) > 0, "cli-mix: a perturbed CSV pin gives fail_ratio > 0")

    tracer = Tracer()
    runner = run.Runner("mult-deep", expected, seed=1, tracer=tracer)
    tracer.install()
    try:
        for label, pin in run.WEYL_CALL_PINS.items():
            spec = next(s for specs in run.LIBRARY_FAMILIES.values() for s in specs if run.family(s).label == label)
            first, second = (traced_counts(runner, run.family(spec)) for _ in range(2))
            check(first == second, f"{label}: traced counts repeat exactly")
            check(first["weyl_calls"] == pin, f"{label}: weyl_calls {first['weyl_calls']} == pin {pin}")
    finally:
        tracer.uninstall()

    run.OUT.mkdir(exist_ok=True)
    runner = run.Runner("cli-mix", expected, seed=1, tracer=Tracer())
    first, second = ([traced_counts(runner, op) for op in runner.ops] for _ in range(2))
    check(first == second, "cli-mix: traced counts repeat exactly")
    spawns = sum(c["pool_spawns"] for c in first)
    if os.cpu_count() == 2:
        check(spawns == run.POOL_SPAWN_PIN, f"cli-mix: pool spawns per pass {spawns} == pin {run.POOL_SPAWN_PIN}")
    else:
        print(f"skip pool-spawn pin: os.cpu_count() = {os.cpu_count()}, pinned for 2 ({spawns} spawns seen)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
