"""Command-line interface.

Subcommands: ``schur-dim``, ``ext-length``, ``multiplicity``, ``verify`` and
``sweep``.  Output is a JSON record (schema "detmult/1") by default, with keys
sorted and every exact integer or rational rendered as a string so downstream
consumers never overflow 64-bit integers; ``--format table`` renders aligned
columns.  Each subparser declares its renderers; only ``sweep`` renders csv,
and a format the subcommand lacks is refused before any computation.
``--format`` takes precedence over the ``DETMULT_FORMAT`` environment
variable, which takes precedence over the default.  ``--jobs N`` is accepted
and ignored; it goes when the benchmark stops patching the slice modules'
process pool (ROADMAP item 2).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any

from .multiplicities import ConsistencyError, Family, build_report
from .schur import weyl_dimension

__all__ = ["main"]

SCHEMA_VERSION = "detmult/1"
FORMATS = ("json", "csv", "table")


class UsageError(Exception):
    pass


def _fmt(value: Any) -> Any:
    """Render exact values as strings; booleans and strings pass through."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    return value


def _resolve_format(args: argparse.Namespace) -> str:
    fmt = args.format or os.environ.get("DETMULT_FORMAT") or "json"
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")
    return fmt


def _family_from_args(args: argparse.Namespace, require_rectangular: bool) -> Family:
    if args.generic:
        if args.m is None or args.n is None:
            raise UsageError("--generic requires both -m and -n")
        if require_rectangular and args.m <= args.n:
            raise UsageError(f"the generic family requires m > n, got m={args.m}, n={args.n}")
        try:
            return Family.generic(args.m, args.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.m is not None:
        raise UsageError("-m only applies to --generic")
    if args.n is None:
        raise UsageError("--pfaffian requires -n")
    try:
        return Family.pfaffian(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ------------------------------------------------------------------ handlers


def _cmd_schur_dim(args: argparse.Namespace) -> tuple[dict, dict, int]:
    try:
        entries = tuple(int(tok) for tok in args.weight.split(","))
    except ValueError:
        raise UsageError(f"--weight expects comma-separated integers, got {args.weight!r}") from None
    if args.dim < 1:
        raise UsageError(f"--dim expects a positive rank, got {args.dim}")
    try:
        dim = weyl_dimension(entries, args.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    parameters = {"weight": args.weight, "dim": str(args.dim)}
    return parameters, {"dimension": _fmt(dim)}, 0


def _cmd_ext_length(args: argparse.Namespace) -> tuple[dict, dict, int]:
    family = _family_from_args(args, require_rectangular=True)
    if args.slice:
        if args.D is not None:
            raise UsageError("-D only applies to --cumulative")
        if args.d is None:
            raise UsageError("--slice requires -d")
        if args.d < 1:
            raise UsageError(f"-d expects a power >= 1, got {args.d}")
        power = args.d
        length = family.slice_length(power)
        mode = "slice"
    else:
        if args.d is not None:
            raise UsageError("-d only applies to --slice")
        if args.D is None:
            raise UsageError("--cumulative requires -D")
        if args.D < 1:
            raise UsageError(f"-D expects a power >= 1, got {args.D}")
        power = args.D
        length = family.cumulative_length(power)
        mode = "cumulative"
    parameters = family.parameters
    parameters["mode"] = mode
    parameters["power"] = str(power)
    results = {
        "mode": mode,
        "power": _fmt(power),
        "length": _fmt(length),
        "finite_ext_degree": _fmt(family.finite_ext_degree),
        "local_cohomology_degree": _fmt(family.finite_cohomology_degree),
        "classifications": [
            {"degree": str(j), "classification": family.length_classification(j, power).value}
            for j in sorted(family.nonvanishing_degrees(power))
        ],
    }
    return parameters, results, 0


def _cmd_multiplicity(args: argparse.Namespace) -> tuple[dict, dict, int]:
    family = _family_from_args(args, require_rectangular=False)
    report = build_report(family)
    results = {
        "family": family.kind,
        "ring_dimension": _fmt(family.ring_dimension),
        "finite_ext_degree": _fmt(family.finite_ext_degree),
        "local_cohomology_degree": _fmt(report.local_cohomology_degree),
        "slice_polynomial": [_fmt(c) for c in report.slice_polynomial.coefficients],
        "j_multiplicity": _fmt(report.j_multiplicity),
        "epsilon_multiplicity": _fmt(report.epsilon_multiplicity),
        "oracles": {name: _fmt(value) for name, value in sorted(report.oracles.items())},
        "all_agree": report.all_agree,
    }
    return family.parameters, results, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, int]:
    from . import verify  # only this subcommand loads the suite

    try:
        checks = verify.run_checks(
            generic_max_m=args.generic_max_m,
            pfaffian_max_n=args.pfaffian_max_n,
            quick=args.quick,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    failed = sum(1 for c in checks if not c.passed)
    results = {
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "total": _fmt(len(checks)),
        "failed": _fmt(failed),
    }
    parameters = {
        "generic_max_m": str(args.generic_max_m),
        "pfaffian_max_n": str(args.pfaffian_max_n),
        "quick": str(args.quick).lower(),
    }
    return parameters, results, 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> tuple[dict, dict, int]:
    family = _family_from_args(args, require_rectangular=False)
    if args.d_from < 1:
        raise UsageError(f"--d-from expects a power >= 1, got {args.d_from}")
    if args.d_to < 0:
        raise UsageError(f"--d-to expects a power >= 0, got {args.d_to}")
    rows = []
    if args.d_to >= args.d_from:
        running = 0
        if args.d_from > 1:
            running = family.cumulative_length(args.d_from - 1)
        for d in range(args.d_from, args.d_to + 1):
            s = family.slice_length(d)
            running += s
            rows.append({"d": str(d), "slice_length": str(s), "cumulative_length": str(running)})
    parameters = family.parameters
    parameters["d_from"] = str(args.d_from)
    parameters["d_to"] = str(args.d_to)
    return parameters, {"rows": rows}, 0


# ------------------------------------------------------------------ renderers


def _render_json(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def _render_sweep_csv(record: dict) -> None:
    params = record["parameters"]
    token = ";".join(f"{k}={v}" for k, v in params.items() if k not in ("family", "d_from", "d_to"))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family", "params", "d", "slice_length", "cumulative_length"])
    for row in record["results"]["rows"]:
        writer.writerow([params["family"], token, row["d"], row["slice_length"], row["cumulative_length"]])


def _render_sweep_table(record: dict) -> None:
    headers = ["d", "slice_length", "cumulative_length"]
    rows = [[r[h] for h in headers] for r in record["results"]["rows"]]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def _render_verify_table(record: dict) -> None:
    for check in record["results"]["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        suffix = f": {check['detail']}" if check["detail"] else ""
        print(f"{status}  {check['name']}{suffix}")
    print(f"{record['results']['failed']} failed of {record['results']['total']} checks")


def _flatten(prefix: str, value: Any, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out.append((prefix, str(value)))


def _render_flat_table(record: dict) -> None:
    pairs: list[tuple[str, str]] = []
    _flatten("", record["results"], pairs)
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


FLAT_RENDER = {"json": _render_json, "table": _render_flat_table}


# ---------------------------------------------------------------- arg parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None, help="output format")
    parser.add_argument("--jobs", type=int, default=None, help="accepted and ignored (to be removed)")
    parser.add_argument("--no-timing", action="store_true", help="omit timing_ms from the record")


def _add_family(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--generic", action="store_true", help="maximal minors of a generic matrix")
    group.add_argument("--pfaffian", action="store_true", help="sub-maximal pfaffians")
    parser.add_argument("-m", type=int, default=None, help="rows of the generic matrix")
    parser.add_argument("-n", type=int, default=None, help="columns (generic) or half-size (pfaffian)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detmult",
        description="Exact Ext lengths and multiplicities of determinantal and pfaffian thickenings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur-dim", help="dimension of an irreducible GL(N) representation")
    p.add_argument("--weight", required=True, help="comma-separated weakly decreasing integers")
    p.add_argument("--dim", type=int, required=True, help="rank N (weight is zero-padded to N)")
    _add_common(p)
    p.set_defaults(handler=_cmd_schur_dim, render=FLAT_RENDER)

    p = sub.add_parser("ext-length", help="slice or cumulative Ext length with classifications")
    _add_family(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--slice", action="store_true", help="consecutive-power slice at power d")
    mode.add_argument("--cumulative", action="store_true", help="full thickening at power D")
    p.add_argument("-d", type=int, default=None, help="power for --slice")
    p.add_argument("-D", type=int, default=None, help="power for --cumulative")
    _add_common(p)
    p.set_defaults(handler=_cmd_ext_length, render=FLAT_RENDER)

    p = sub.add_parser("multiplicity", help="multiplicity report with oracle cross-checks")
    _add_family(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_multiplicity, render=FLAT_RENDER)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--generic-max-m", type=int, default=5, help="largest generic m exercised")
    p.add_argument("--pfaffian-max-n", type=int, default=2, help="largest pfaffian n exercised")
    p.add_argument("--quick", action="store_true", help="restrict to n <= 2 families")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify, render={"json": _render_json, "table": _render_verify_table})

    p = sub.add_parser("sweep", help="tabulate slice and cumulative lengths")
    _add_family(p)
    p.add_argument("--d-from", type=int, required=True, help="first power")
    p.add_argument("--d-to", type=int, required=True, help="last power (inclusive)")
    _add_common(p)
    render = {"json": _render_json, "table": _render_sweep_table, "csv": _render_sweep_csv}
    p.set_defaults(handler=_cmd_sweep, render=render)

    parser.set_defaults(renders={name: sp.get_default("render") for name, sp in sub.choices.items()})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    started = time.perf_counter()
    try:
        fmt = _resolve_format(args)
        if fmt not in args.render:
            owners = ", ".join(name for name, render in args.renders.items() if fmt in render)
            raise UsageError(f"--format {fmt} is only available for {owners}")
        parameters, results, exit_code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "results": results,
    }
    if not args.no_timing:
        record["timing_ms"] = int((time.perf_counter() - started) * 1000)
    args.render[fmt](record)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
