"""In-memory span tracer for the detmult benchmark.

``Tracer.install`` replaces the module attributes that detmult's own callers
resolve at call time (``maximal_minors.weyl_dimension``,
``multiplicities.interpolate``, ``maximal_minors.ProcessPoolExecutor``, ...)
with wrappers that record spans, and ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited.

Two kinds of boundary are traced:

* spans, for calls made a few hundred times per op (``build_report``,
  ``slice_polynomial``, ``slice_length``, ``interpolate``, the oracles, the
  pool): name, start, end, parent span and op id, kept in memory;
* leaves, for the hot calls (``weyl_dimension``, the tuple enumeration),
  which are counted and timed but add no span: their time is charged to the
  enclosing span, so self times still partition the op.

A span's self time is its duration minus the time its child spans and leaves
cover.  Work done inside the per-slice pool's worker processes is not traced:
it appears only as the pool span in the parent (``slice.pool_s``).
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from detmult import arith, cli, maximal_minors, multiplicities, pfaffians, schur, verify

_pc = time.perf_counter
_END = object()

BUILD_REPORT = "multiplicities.build_report"
SLICE_POLY = "multiplicities.slice_polynomial"
ORACLE = "multiplicities.oracle"
SLICE = "slice.slice_length"
CUMULATIVE = "slice.cumulative_length"
POOL = "slice.pool"
INTERPOLATE = "arith.interpolate"
RANGE_SUM = "arith.poly_range_sum"
RUN_CHECKS = "verify.run_checks"

_ORACLES = (
    "closed_form_generic",
    "grassmannian_degree",
    "standard_tableaux_rectangle",
    "integral_formula_generic",
    "closed_form_pfaffian",
    "orthogonal_grassmannian_degree",
    "shifted_tableaux_staircase",
    "integral_formula_pfaffian",
)

# Counts that must repeat exactly between two traced runs of the same ops.
COUNTS = (
    "weyl_calls",
    "weyl_pairs",
    "tuples",
    "unique_tuples",
    "slice_calls",
    "unique_nodes",
    "pool_spawns",
    "reports_built",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child_s", "interp_end")

    def __init__(self, id_: int, name: str, parent: "Span | None", op: object) -> None:
        self.id = id_
        self.name = name
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.interp_end = None  # on slice_polynomial spans: when interpolate returned
        self.end = None
        self.start = _pc()

    def as_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent.id if self.parent else None, self.op]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_first = 0
        self._op = None
        self._slice_params = None
        self._reset_counts()

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent, self._op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _pc()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    # ------------------------------------------------------------ ops

    def _reset_counts(self) -> None:
        self.weyl_calls = self.weyl_pairs = self.tuples = 0
        self.slice_calls = self.pool_spawns = self.reports_built = 0
        self.weyl_s = self.enum_s = 0.0
        self.tuple_keys: set = set()
        self.node_keys: set = set()
        self.verify_depth = 0

    def begin_op(self, op: object, root: str) -> None:
        """Start counting for one op; every span until end_op belongs to it."""
        self._reset_counts()
        self._op = op
        self._op_first = len(self.spans)
        self._fact = arith.factorial.cache_info()
        self._root = self._open(root)

    def end_op(self) -> dict:
        """Close the op and return its counts and per-layer self times."""
        self._close(self._root)
        fact = arith.factorial.cache_info()
        self_s: Counter = Counter()
        nodes_s = validate_s = oracles_s = 0.0
        for span in self.spans[self._op_first:]:
            duration = span.end - span.start
            self_s[span.name] += duration - span.child_s
            parent = span.parent
            if span.name == SLICE and parent.name == SLICE_POLY and span.end <= (parent.interp_end or 0):
                nodes_s += duration
            elif span.name == SLICE_POLY and span.interp_end is not None:
                validate_s += span.end - span.interp_end
            elif span.name == ORACLE:
                oracles_s += duration
        return {
            "weyl_calls": self.weyl_calls,
            "weyl_pairs": self.weyl_pairs,
            "tuples": self.tuples,
            "unique_tuples": len(self.tuple_keys),
            "slice_calls": self.slice_calls,
            "unique_nodes": len(self.node_keys),
            "pool_spawns": self.pool_spawns,
            "reports_built": self.reports_built,
            "factorial_hits": fact.hits - self._fact.hits,
            "factorial_misses": fact.misses - self._fact.misses,
            "enum_s": self.enum_s,
            "weyl_s": self.weyl_s,
            "slice_s": self_s[SLICE] + self_s[CUMULATIVE],
            "pool_s": self_s[POOL],
            "report_s": self_s[BUILD_REPORT] + self_s[SLICE_POLY],
            "nodes_s": nodes_s,
            "validate_s": validate_s,
            "oracles_s": oracles_s,
            "interpolate_s": self_s[INTERPOLATE],
            "range_sum_s": self_s[RANGE_SUM],
            "run_checks_s": self_s[RUN_CHECKS],
        }

    def span_rows(self) -> list[list]:
        return [span.as_row() for span in self.spans]

    # ------------------------------------------------------------ wrappers

    def _weyl(self, fn):
        def weyl_dimension(weight, n=None):
            t0 = _pc()
            value = fn(weight, n)
            dt = _pc() - t0
            size = len(weight) if n is None else n
            self.weyl_calls += 1
            self.weyl_pairs += size * (size - 1) // 2
            self.weyl_s += dt
            self.stack[-1].child_s += dt
            return value

        return weyl_dimension

    def _tuples(self, fn):
        def weakly_decreasing_tuples(length, bound):
            span = self.stack[-1]
            params = self._slice_params
            it = fn(length, bound)
            while True:
                t0 = _pc()
                rest = next(it, _END)
                dt = _pc() - t0
                self.enum_s += dt
                span.child_s += dt
                if rest is _END:
                    return
                self.tuples += 1
                # the caller's full tuple is (bound,) + rest, and the family
                # parameters are those of the enclosing slice_length call
                self.tuple_keys.add((params, bound, rest))
                yield rest

        return weakly_decreasing_tuples

    def _slice(self, fn):
        def slice_length(params, d, jobs=None):
            span = self._open(SLICE)
            self.slice_calls += 1
            self.node_keys.add((params, d))
            outer, self._slice_params = self._slice_params, params
            try:
                return fn(params, d, jobs)
            finally:
                self._slice_params = outer
                self._close(span)

        return slice_length

    def _interpolate(self, fn):
        def interpolate(points):
            span = self._open(INTERPOLATE)
            try:
                return fn(points)
            finally:
                self._close(span)
                if span.parent.name == SLICE_POLY:
                    span.parent.interp_end = span.end

        return interpolate

    def _build_report(self, fn):
        def build_report(family, jobs=None):
            if self.verify_depth:
                self.reports_built += 1
            span = self._open(BUILD_REPORT)
            try:
                return fn(family, jobs)
            finally:
                self._close(span)

        return build_report

    def _run_checks(self, fn):
        def run_checks(*args, **kwargs):
            self.verify_depth += 1
            span = self._open(RUN_CHECKS)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                self.verify_depth -= 1

        return run_checks

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Times the pool from construction to the end of its shutdown."""

            def __init__(self, *args, **kwargs):
                tracer.pool_spawns += 1
                self._span = tracer._open(POOL)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span)

        return TracedPool

    # ------------------------------------------------------------ install

    def _patch(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        """Wrap every traced attribute; the originals are kept for uninstall."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        weyl = self._weyl(schur.weyl_dimension)
        build_report = self._build_report(multiplicities.build_report)
        pool = self._pool_class()
        for module in (maximal_minors, pfaffians):
            self._patch(module, "weyl_dimension", weyl)
            self._patch(module, "weakly_decreasing_tuples", self._tuples(module.weakly_decreasing_tuples))
            self._patch(module, "slice_length", self._slice(module.slice_length))
            self._patch(module, "cumulative_length", self._spanned(CUMULATIVE, module.cumulative_length))
            self._patch(module, "ProcessPoolExecutor", pool)
        self._patch(schur, "weyl_dimension", weyl)
        self._patch(cli, "weyl_dimension", weyl)
        self._patch(multiplicities, "build_report", build_report)
        self._patch(cli, "build_report", build_report)
        self._patch(multiplicities, "slice_polynomial", self._spanned(SLICE_POLY, multiplicities.slice_polynomial))
        self._patch(multiplicities, "interpolate", self._interpolate(multiplicities.interpolate))
        self._patch(multiplicities, "poly_range_sum", self._spanned(RANGE_SUM, multiplicities.poly_range_sum))
        for name in _ORACLES:
            self._patch(multiplicities, name, self._spanned(ORACLE, getattr(multiplicities, name)))
        self._patch(verify, "run_checks", self._run_checks(verify.run_checks))

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)
