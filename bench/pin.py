"""Regenerate expected.json, the pinned output every benchmark op is checked against.

    python3 bench/pin.py

Library ops pin the j-multiplicity and ``all_agree``.  CLI ops pin the JSON
record without ``timing_ms``, or the CSV bytes, for every argv the seeded
generator can draw.  Before anything is written, each pinned
j-multiplicity is compared with the closed form computed here, apart from
detmult's own oracles, and both verify records must report 0 failed checks.
"""

from __future__ import annotations

import json
import sys
from math import factorial

import run


def closed_form(kind: str, *params: int) -> int:
    """(mn)! prod i!/(m+i)! for generic(m, n); (2n^2+n)! prod (2i)!/(2n+1+2i)! for pfaffian(n)."""
    if kind == "generic":
        m, n = params
        num, den = factorial(m * n), 1
        for i in range(n):
            num *= factorial(i)
            den *= factorial(m + i)
    else:
        (n,) = params
        num, den = factorial(2 * n * n + n), 1
        for i in range(n):
            num *= factorial(2 * i)
            den *= factorial(2 * n + 1 + 2 * i)
    if num % den:
        raise ValueError(f"closed form of {kind}{params} is not an integer")
    return num // den


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from detmult.multiplicities import build_report

    library = {}
    for specs in run.LIBRARY_FAMILIES.values():
        for spec in specs:
            fam = run.family(spec)
            report = build_report(fam)
            want = closed_form(*spec)
            if not report.all_agree or report.j_multiplicity != want:
                raise SystemExit(f"{fam.label}: j = {report.j_multiplicity}, closed form {want}")
            library[fam.label] = {"j_multiplicity": str(report.j_multiplicity), "all_agree": True}

    oracle_checks = {
        "multiplicity --generic -m 5 -n 3": closed_form("generic", 5, 3),
        "multiplicity --generic -m 10 -n 3": closed_form("generic", 10, 3),
        "multiplicity --pfaffian -n 3": closed_form("pfaffian", 3),
    }
    env = run.child_env()
    cli = {}
    for argv in run.every_cli_argv():
        key = " ".join(argv)
        code, out, err = run.run_child([sys.executable, "-m", "detmult.cli", *argv], env)
        if code != 0:
            raise SystemExit(f"{key}: exit {code}: {err}")
        if argv == run.SWEEP:
            cli[key] = {"csv": out}
            continue
        record = json.loads(out)
        record.pop("timing_ms")
        results = record["results"]
        if key in oracle_checks and (
            results["j_multiplicity"] != str(oracle_checks[key]) or results["all_agree"] is not True
        ):
            raise SystemExit(f"{key}: j = {results['j_multiplicity']}, closed form {oracle_checks[key]}")
        if argv[0] == "verify" and results["failed"] != "0":
            raise SystemExit(f"{key}: {results['failed']} checks failed")
        cli[key] = {"record": record}

    path = run.BENCH / "expected.json"
    path.write_text(json.dumps({"library": library, "cli": cli}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(library)} library ops and {len(cli)} CLI argvs in {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
