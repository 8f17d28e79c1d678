"""Run one detmult CLI op with the benchmark's tracer installed.

    python3 bench/child.py TRACE_OUT OP_ID -- ARGV...

Times ``import detmult.cli``, installs the wrappers of ``tracer.Tracer`` (the
same ones the library workloads use), runs ``detmult.cli.main(ARGV)`` and
writes the op's counts, self times and spans as JSON to TRACE_OUT.  The
program's output goes to stdout unchanged and the exit code is main's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    started = time.perf_counter()
    import detmult.cli

    import_s = time.perf_counter() - started
    from tracer import Tracer

    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_OUT OP_ID -- ARGV...")
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id, "cli.main")
    try:
        code = detmult.cli.main(argv)
    finally:
        record = tracer.end_op()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"pid": os.getpid(), "import_s": import_s, "op": record, "spans": tracer.span_rows()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
