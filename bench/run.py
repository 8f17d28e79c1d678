"""The detmult benchmark: closed loop, one client, every output checked.

Run from the repository root:

    python3 bench/run.py --workload mult-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1      # every workload, one process each

Workloads (why each was chosen is in BENCHMARK.json and BASELINE.md):

  mult-deep  library build_report(family), default jobs, over pfaffian(4),
             generic(8,4), generic(6,5) and generic(12,4)
  mult-wide  library build_report over generic(m,1), m = 60, 80, 100, 120,
             and generic(30,2)
  cli-mix    one ``python -m detmult.cli`` subprocess per op, default flags

A run repeats whole passes over the workload's op list until --seconds have
elapsed.  The seed shuffles the op order of every pass and draws, once per
run, the small CLI parameters (the schur-dim weight, the ext-length powers)
from fixed lists of matched cost; the program only ever sees the generated
Family values or argv.  Every op's output is compared with ``expected.json``; an
exception, a non-zero exit, ``all_agree`` false or any mismatch fails the op.

--trace 0 prints the end-to-end metrics.  --trace 1 installs
``tracer.Tracer`` (in this process, or through ``child.py`` in each CLI
subprocess), prints the per-layer metrics, and writes every span to
``bench/out/``.  Work inside the per-slice pool's worker processes is not
traced; it shows only as ``slice.pool_s``.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("mult-deep", "mult-wide", "cli-mix")
LIBRARY_FAMILIES = {
    "mult-deep": [("pfaffian", 4), ("generic", 8, 4), ("generic", 6, 5), ("generic", 12, 4)],
    "mult-wide": [("generic", 60, 1), ("generic", 80, 1), ("generic", 100, 1), ("generic", 120, 1), ("generic", 30, 2)],
}

# Seeded CLI parameters.  Within each list the ops cost about the same, and
# none is wide enough (64 blocks) to engage the per-slice pool, so the pool
# runs only in the sweep: d = 66..120, 55 pools per pass when jobs = 2.
SCHUR_WEIGHTS = (
    "9,7,5,3,1,0", "9,8,6,4,2,0", "8,8,5,5,2,1", "9,6,6,3,3,0",
    "8,7,6,5,4,3", "9,9,4,4,1,1", "7,6,5,3,2,1", "9,5,4,3,2,0",
    "8,6,4,2,1,0", "9,7,7,2,2,1", "8,8,8,1,1,0", "9,8,7,6,5,4",
)
SLICE_POWERS = tuple(range(24, 36))
CUMULATIVE_POWERS = tuple(range(12, 24))
SWEEP = ["sweep", "--generic", "-m", "5", "-n", "3", "--d-from", "1", "--d-to", "120", "--format", "csv"]

# Seed-commit counts the tracer must reproduce (checked by smoke.py and
# reported by every traced run; a change that alters them is not a failure).
WEYL_CALL_PINS = {
    "generic-maximal-minors(m=12, n=4)": 585_650,
    "sub-maximal-pfaffians(n=4)": 101_270,
    "generic-maximal-minors(m=120, n=1)": 122,
}
POOL_SPAWN_PIN = 55  # per cli-mix pass when os.cpu_count() == 2

SETUP_SAMPLES = 15


FIXED_ARGVS = [
    ["multiplicity", "--generic", "-m", "5", "-n", "3"],
    ["multiplicity", "--generic", "-m", "10", "-n", "3"],
    ["multiplicity", "--pfaffian", "-n", "3"],
    ["verify", "--quick"],
    ["verify"],
    SWEEP,
]


def schur_argv(weight: str) -> list[str]:
    return ["schur-dim", "--weight", weight, "--dim", "8"]


def slice_argv(d: int) -> list[str]:
    return ["ext-length", "--generic", "-m", "5", "-n", "3", "--slice", "-d", str(d)]


def cumulative_argv(D: int) -> list[str]:
    return ["ext-length", "--pfaffian", "-n", "3", "--cumulative", "-D", str(D)]


def cli_argvs(rng: random.Random) -> list[list[str]]:
    """The ops of cli-mix, parameters drawn once per run from the fixed lists."""
    return [
        schur_argv(rng.choice(SCHUR_WEIGHTS)),
        slice_argv(rng.choice(SLICE_POWERS)),
        cumulative_argv(rng.choice(CUMULATIVE_POWERS)),
        *FIXED_ARGVS,
    ]


def every_cli_argv() -> list[list[str]]:
    """Every argv cli_argvs can draw; expected.json pins each of them."""
    return (
        [schur_argv(w) for w in SCHUR_WEIGHTS]
        + [slice_argv(d) for d in SLICE_POWERS]
        + [cumulative_argv(D) for D in CUMULATIVE_POWERS]
        + FIXED_ARGVS
    )


def family(spec: tuple):
    from detmult.multiplicities import Family

    return Family.generic(*spec[1:]) if spec[0] == "generic" else Family.pfaffian(*spec[1:])


def child_env() -> dict[str, str]:
    """The caller's environment with detmult's settings left at their defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DETMULT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float = 120) -> tuple[int, str, str]:
    """Run cmd to completion; on timeout kill its whole process group."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            return -signal.SIGKILL, out, err + f"\ntimed out after {timeout} s"
    return proc.returncode, out, err


@dataclass
class OpResult:
    key: str
    latency: float
    ok: bool
    detail: str = ""
    trace: dict | None = None  # {"op": tracer record, plus "import_s", "pid", "spans" from child.py}
    timing_s: float | None = None  # the CLI record's own timing_ms
    out_bytes: int = 0


class Runner:
    """Runs passes of one workload and checks every op against the pins.

    With a tracer, library ops run under it in this process and CLI ops run
    through child.py, which installs its own.
    """

    def __init__(self, workload: str, expected: dict, seed: int, tracer=None) -> None:
        self.workload = workload
        self.expected = expected
        self.tracer = tracer
        self.env = child_env()
        self.ops_run = 0
        self.rng = random.Random(seed)
        if workload == "cli-mix":
            self.ops, self.run_op = cli_argvs(self.rng), self.run_cli
        else:
            self.ops, self.run_op = [family(spec) for spec in LIBRARY_FAMILIES[workload]], self.run_library

    def run_pass(self) -> tuple[float, list[OpResult]]:
        """Every op once, in a freshly shuffled order: (wall time, results)."""
        ops = list(self.ops)
        self.rng.shuffle(ops)
        started = time.perf_counter()
        results = [self.run_op(op) for op in ops]
        return time.perf_counter() - started, results

    def run_library(self, fam) -> OpResult:
        from detmult import multiplicities

        self.ops_run += 1
        if self.tracer:
            self.tracer.begin_op(self.ops_run, "bench.op")
        started = time.perf_counter()
        try:
            report = multiplicities.build_report(fam)
        except Exception as exc:  # an op failure: counted, never fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        result = OpResult(fam.label, latency, False, trace={"op": self.tracer.end_op()} if self.tracer else None)
        if report is None:
            result.detail = error
            return result
        want = self.expected["library"][fam.label]
        got = {"j_multiplicity": str(report.j_multiplicity), "all_agree": report.all_agree}
        result.ok = report.all_agree and got == want
        result.detail = "" if result.ok else f"expected {want}, got {got}"
        return result

    def run_cli(self, argv: list[str]) -> OpResult:
        self.ops_run += 1
        key = " ".join(argv)
        trace_file = OUT / f"child-{os.getpid()}-{self.ops_run}.json"
        if self.tracer:
            cmd = [sys.executable, str(BENCH / "child.py"), str(trace_file), str(self.ops_run), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "detmult.cli", *argv]
        started = time.perf_counter()
        code, out, err = run_child(cmd, self.env)
        latency = time.perf_counter() - started
        result = OpResult(key, latency, False, out_bytes=len(out.encode()))
        if self.tracer and trace_file.exists():
            result.trace = json.loads(trace_file.read_text())
            trace_file.unlink()
        if code != 0:
            result.detail = f"exit {code}: {err.strip()[-300:]}"
            return result
        want = self.expected["cli"][key]
        if "csv" in want:
            result.ok = out == want["csv"]
            result.detail = "" if result.ok else "CSV differs from the pinned bytes"
            return result
        try:
            record = json.loads(out)
        except json.JSONDecodeError as exc:
            result.detail = f"unparseable JSON: {exc}"
            return result
        timing_ms = record.pop("timing_ms", None)
        result.timing_s = timing_ms / 1000 if isinstance(timing_ms, int) else None
        agree = record.get("results", {}).get("all_agree", True)
        result.ok = record == want["record"] and agree is True and result.timing_s is not None
        if not result.ok:
            result.detail = "record differs from the pin" if agree is True else "all_agree is false"
        return result


# ---------------------------------------------------------------- metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least 10
    samples above it; the maximum when there are 10 samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing detmult and detmult.cli."""
    cmd = [sys.executable, "-c", "import detmult, detmult.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        code, _, err = run_child(cmd, env, timeout=60)
        if code != 0:
            raise SystemExit(f"error: importing detmult failed: {err.strip()}")
        if i:  # the first start also writes the bytecode caches
            samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def end_to_end(pass_times, results, wall_s, setup_s, cli: bool) -> dict[str, tuple[float, str]]:
    latencies = [r.latency for r in results]
    failed = sum(not r.ok for r in results)
    # the process doing the work: this one, or the CLI subprocesses
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "ops_per_s": (len(results) / wall_s, "ops/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail(latencies)[0], "s"),
        "fail_ratio": (failed / len(results), "1"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }


PER_LAYER = (
    ("partitions.tuples", "count"),
    ("partitions.enum_s", "s"),
    ("schur.weyl_calls", "count"),
    ("schur.weyl_pairs", "count"),
    ("schur.weyl_s", "s"),
    ("schur.ns_per_pair", "ns"),
    ("slice.calls", "count"),
    ("slice.s", "s"),
    ("slice.unique_tuple_ratio", "1"),
    ("slice.unique_node_ratio", "1"),
    ("slice.pool_spawns", "count"),
    ("slice.pool_s", "s"),
    ("multiplicities.report_s", "s"),
    ("multiplicities.nodes_s", "s"),
    ("multiplicities.validate_s", "s"),
    ("multiplicities.oracles_s", "s"),
    ("arith.interpolate_s", "s"),
    ("arith.range_sum_s", "s"),
    ("arith.factorial_hit_ratio", "1"),
    ("verify.run_checks_s", "s"),
    ("verify.reports_built", "count"),
    ("cli.import_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"),
)


def pass_totals(results: list[OpResult]) -> Counter:
    """Sum the traced op records of one pass (a CLI op that died early has none)."""
    total: Counter = Counter()
    for r in results:
        if r.trace is None:
            continue
        total.update(r.trace["op"])
        total["import_s"] += r.trace.get("import_s", 0)
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list[Counter], ref_results: list[OpResult], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Counts come from the first traced pass, times are medians over passes."""
    first = traced[0]

    def med(name: str) -> float:
        return statistics.median(p[name] for p in traced)

    cli_ops = [r for r in ref_results if r.timing_s is not None]
    values = {
        "partitions.tuples": first["tuples"],
        "partitions.enum_s": med("enum_s"),
        "schur.weyl_calls": first["weyl_calls"],
        "schur.weyl_pairs": first["weyl_pairs"],
        "schur.weyl_s": med("weyl_s"),
        "schur.ns_per_pair": statistics.median(ratio(p["weyl_s"], p["weyl_pairs"]) * 1e9 for p in traced),
        "slice.calls": first["slice_calls"],
        "slice.s": med("slice_s"),
        "slice.unique_tuple_ratio": ratio(first["unique_tuples"], first["tuples"]),
        "slice.unique_node_ratio": ratio(first["unique_nodes"], first["slice_calls"]),
        "slice.pool_spawns": first["pool_spawns"],
        "slice.pool_s": med("pool_s"),
        "multiplicities.report_s": med("report_s"),
        "multiplicities.nodes_s": med("nodes_s"),
        "multiplicities.validate_s": med("validate_s"),
        "multiplicities.oracles_s": med("oracles_s"),
        "arith.interpolate_s": med("interpolate_s"),
        "arith.range_sum_s": med("range_sum_s"),
        "arith.factorial_hit_ratio": ratio(
            first["factorial_hits"], first["factorial_hits"] + first["factorial_misses"]
        ),
        "verify.run_checks_s": med("run_checks_s"),
        "verify.reports_built": first["reports_built"],
        "cli.import_s": med("import_s"),
        "cli.overhead_s": sum(r.latency - r.timing_s for r in cli_ops),
        "cli.output_bytes": sum(r.out_bytes for r in ref_results),
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


# ---------------------------------------------------------------- environment


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args: argparse.Namespace) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "nproc": len(affinity),
        "affinity": affinity,
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def finish_environment(env: dict) -> None:
    env["loadavg_end"] = os.getloadavg()
    env["overloaded"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]
    print("env " + json.dumps(env, sort_keys=True))
    if env["overloaded"]:
        print(f"WARNING: load average exceeded nproc = {env['nproc']}; timings are suspect", file=sys.stderr)


# ---------------------------------------------------------------- runs


def report_failures(results: list[OpResult]) -> None:
    bad = [r for r in results if not r.ok]
    for r in bad[:5]:
        print(f"FAIL {r.key}: {r.detail}", file=sys.stderr)
    if len(bad) > 5:
        print(f"... and {len(bad) - 5} more failed ops", file=sys.stderr)


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name.ljust(width)}  {value:<22.9g} {unit}")


def timed_run(runner: Runner, seconds: float) -> tuple[list[float], list[list[OpResult]], float]:
    """Whole passes until `seconds` have elapsed: (pass times, ops of each pass, wall time)."""
    pass_times: list[float] = []
    passes: list[list[OpResult]] = []
    started = time.perf_counter()
    while True:
        pass_s, results = runner.run_pass()
        pass_times.append(pass_s)
        passes.append(results)
        if time.perf_counter() - started >= seconds:
            return pass_times, passes, time.perf_counter() - started


def untraced(args: argparse.Namespace) -> tuple[dict, list[OpResult]]:
    setup_s = measure_setup(child_env())
    started = time.perf_counter()
    runner = Runner(args.workload, load_expected(), args.seed)
    setup_s += time.perf_counter() - started
    pass_times, passes, wall_s = timed_run(runner, args.seconds)
    results = [r for p in passes for r in p]
    metrics = end_to_end(pass_times, results, wall_s, setup_s, args.workload == "cli-mix")
    print_metrics(metrics)
    _, pct, n = tail([r.latency for r in results])
    print(f"op_tail_s is p{pct:.1f} of {n} op samples; {len(pass_times)} passes")
    del metrics["fail_ratio"]  # carried by attempted/failed: never a bounded metric, it is 0 when correct
    return metrics, results


def traced(args: argparse.Namespace) -> tuple[dict, list[OpResult]]:
    from tracer import COUNTS, Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    runner = Runner(args.workload, load_expected(), args.seed, tracer)
    library = args.workload != "cli-mix"
    if library:
        tracer.install()
    try:
        pass_times, passes, _ = timed_run(runner, args.seconds)
    finally:
        tracer.uninstall()
    results = [r for p in passes for r in p]
    totals = [pass_totals(p) for p in passes]
    runner.tracer = None
    ref_s, ref_results = runner.run_pass()
    overhead_s = statistics.median(pass_times) - ref_s
    metrics = per_layer(totals, ref_results, overhead_s)
    print_metrics(metrics)

    repeat = all(all(t[c] == totals[0][c] for c in COUNTS) for t in totals)
    print(f"counts repeat exactly across {len(totals)} traced passes: {'yes' if repeat else 'NO'}")
    print(f"tracing overhead: traced pass_s {statistics.median(pass_times):.4f} s - untraced {ref_s:.4f} s")
    for r in passes[0]:
        if r.trace is None:
            continue
        op = r.trace["op"]
        pin = WEYL_CALL_PINS.get(r.key)
        note = "" if pin is None else f" (seed pin {pin}: {'match' if op['weyl_calls'] == pin else 'DIFFERS'})"
        print(f"op {r.key}: weyl_calls {op['weyl_calls']}, tuples {op['tuples']}, pool_spawns {op['pool_spawns']}{note}")
    if not library and os.cpu_count() == 2:
        spawns = totals[0]["pool_spawns"]
        print(f"pool spawns per pass {spawns} (seed pin {POOL_SPAWN_PIN}: {'match' if spawns == POOL_SPAWN_PIN else 'DIFFERS'})")
    print("note: spans inside pool worker processes are not collected; their time shows only as slice.pool_s")

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        fh.write(json.dumps(["id", "name", "start", "end", "parent", "op", "pid"]) + "\n")
        if library:
            for row in tracer.span_rows():
                fh.write(json.dumps(row + [os.getpid()]) + "\n")
        else:
            for r in results:
                for row in r.trace["spans"] if r.trace else ():
                    fh.write(json.dumps(row + [r.trace["pid"]]) + "\n")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, results + ref_results


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and caches start fresh."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary, sort_keys=True))
    return 0


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "detmult" / "__init__.py").is_file():
        print(f"error: no detmult sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import detmult

    if Path(detmult.__file__).resolve().parent != SRC / "detmult":
        print(f"error: imported detmult from {detmult.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    metrics, results = (traced if args.trace else untraced)(args)
    report_failures(results)
    finish_environment(env)
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
