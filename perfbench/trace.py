"""Traced runs: spans recorded around the library's public functions.

:func:`install` wraps the public functions behind every layer the
benchmark reports (see :data:`TARGETS`), on their class or module and
in every ``repro`` module that imported the function by name.  Each
call made while an operation is open records one span -- name, start,
end, parent span, operation id -- into a :class:`Recorder`, which
keeps them in five integer columns in memory.  Times are read from the
calling thread's CPU clock, like every per-call time the benchmark
reports.

A span's *self time* is its duration minus the time its child spans
cover.  :func:`analyze` computes it, checks that the spans of each
operation form one tree whose self times sum to the operation's total
(:data:`INTEGRITY_TOLERANCE_NS`), and charges each span to its layer:
the first dotted part of its name, the ``repro`` module family it
wraps.  The wrappers' own cost, estimated by :func:`calibrate` during
the traced run (the machine's speed drifts within seconds), is moved
out of the layers into a ``trace`` layer so that a layer called very
often does not look slower than it is.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

TRACE_FORMAT = "perfbench-trace"
TRACE_VERSION = 1
#: Per operation, self times must sum to the traced total within this.
INTEGRITY_TOLERANCE_NS = 1000
#: The layer of an operation's root span: the benchmark's own code.
BENCH_LAYER = "bench"
#: The pseudo-layer that takes the wrappers' estimated cost.
TRACE_LAYER = "trace"
LAYERS = (
    BENCH_LAYER,
    "service",
    "batching",
    "sharding",
    "synopsis",
    "ledger",
    "mechanisms",
    "apsp",
    "engine",
    "rng",
    "graphs",
    "algorithms",
    "telemetry",
    TRACE_LAYER,
)

#: ``(module, qualified name, span name, kind)`` of every wrapped
#: public function.  Kinds other than ``call`` also count work:
#: ``sweep`` the rows and bytes an engine sweep returns, ``spend`` and
#: ``capture``/``audit`` the calls that succeed (or, for ``spend``,
#: raise), ``draw`` the Laplace values drawn, and ``context`` times a
#: context manager's entry and exit as two spans.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serving.config", "serve", "service.serve", "call"),
    ("repro.serving.service", "DistanceService.__init__", "service.init", "call"),
    ("repro.serving.service", "DistanceService.query", "service.query", "call"),
    ("repro.serving.service", "DistanceService.query_batch", "service.query_batch", "call"),
    ("repro.serving.service", "DistanceService.refresh", "service.refresh", "call"),
    ("repro.serving.batching", "BatchPlanner.run", "batching.run", "call"),
    ("repro.serving.sharding", "partition_graph", "sharding.partition", "call"),
    ("repro.serving.sharding", "ShardedDistanceService.__init__", "sharding.init", "call"),
    ("repro.serving.sharding", "ShardedDistanceService.query", "sharding.query", "call"),
    ("repro.serving.sharding", "ShardedDistanceService.query_batch", "sharding.query_batch", "call"),
    ("repro.serving.sharding", "ShardedDistanceService.refresh", "sharding.refresh", "call"),
    ("repro.serving.sharding", "ShardedDistanceService.refresh_shard", "sharding.refresh_shard", "call"),
    # The batch planner's routed lookups (its synopsis surface).
    ("repro.serving.sharding", "_ShardRouter.distance", "sharding.route", "call"),
    ("repro.serving.ledger", "BudgetLedger.spend", "ledger.spend", "spend"),
    ("repro.serving.ledger", "BudgetLedger.rotate", "ledger.rotate", "call"),
    ("repro.apsp.hubs", "HubSetRelease.__init__", "apsp.release", "call"),
    ("repro.apsp.hubs", "build_hub_structure", "apsp.hub_build", "call"),
    ("repro.apsp.hubs", "HubStructure.estimate", "apsp.estimate", "call"),
    ("repro.engine.kernels", "multi_source_distances", "engine.sweep", "sweep"),
    ("repro.engine.csr", "CSRGraph.from_graph", "engine.csr_compile", "call"),
    ("repro.engine.csr", "CSRGraph.with_weights", "engine.csr_compile", "call"),
    ("repro.rng", "Rng.laplace", "rng.laplace", "draw"),
    ("repro.rng", "Rng.laplace_vector", "rng.laplace", "draw"),
    ("repro.graphs.graph", "WeightedGraph.with_weights", "graphs.reweight", "call"),
    ("repro.graphs.graph", "WeightedGraph.weight_vector", "graphs.reweight", "call"),
    ("repro.graphs.graph", "WeightedGraph.subgraph", "graphs.reweight", "call"),
    ("repro.graphs.graph", "WeightedGraph.weights", "graphs.reweight", "call"),
    ("repro.algorithms.traversal", "is_connected", "algorithms.is_connected", "call"),
    ("repro.telemetry.tracer", "Tracer.span", "telemetry.span", "context"),
    ("repro.telemetry.tracer", "Tracer.event", "telemetry.event", "call"),
    ("repro.telemetry.registry", "Counter.inc", "telemetry.metric", "call"),
    ("repro.telemetry.registry", "Gauge.set", "telemetry.metric", "call"),
    ("repro.telemetry.registry", "Histogram.observe", "telemetry.metric", "call"),
    ("repro.telemetry.registry", "Histogram.observe_many", "telemetry.metric", "call"),
    ("repro.telemetry.registry", "MetricsRegistry.counter", "telemetry.lookup", "call"),
    ("repro.telemetry.registry", "MetricsRegistry.gauge", "telemetry.lookup", "call"),
    ("repro.telemetry.registry", "MetricsRegistry.histogram", "telemetry.lookup", "call"),
    ("repro.telemetry.profile", "FlightRecorder.consider", "telemetry.flight", "capture"),
    ("repro.telemetry.audit", "AuditLog.record", "telemetry.audit", "audit"),
    ("repro.telemetry.logging", "EventLog.emit", "telemetry.log", "call"),
)


class Recorder:
    """Spans in memory, one row per span in five integer columns."""

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = -1
        self.op_kinds: List[str] = []
        self.counters: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        """The interned id of a span name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        """Open a span under the innermost open one; returns its row."""
        row = len(self.end)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(row)
        self.start.append(self.clock())
        return row

    def close(self, row: int) -> None:
        """Close the innermost open span."""
        self.end[row] = self.clock()
        self.stack.pop()

    def begin_op(self, kind: str) -> int:
        """Open the root span of one operation."""
        self.current_op = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self.open(self.name_id(f"{BENCH_LAYER}.{kind}"))

    def end_op(self, row: int) -> None:
        """Close an operation's root span."""
        self.close(row)
        self.current_op = -1

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a work counter."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen for a counter."""
        self.counters[key] = max(self.counters.get(key, 0), value)


def _traced(
    fn: Callable,
    span: str,
    rec: Recorder,
    after: Callable | None = None,
    failed: Callable | None = None,
) -> Callable:
    """``fn`` recording one span per call made inside an operation."""
    name_id = rec.name_id(span)
    clock = rec.clock
    names, parents, ops, starts, ends, stack = (
        rec.name, rec.parent, rec.op, rec.start, rec.end, rec.stack
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        op = rec.current_op
        if op < 0:
            return fn(*args, **kwargs)
        row = len(ends)
        names.append(name_id)
        parents.append(stack[-1])
        ops.append(op)
        ends.append(0)
        stack.append(row)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            ends[row] = clock()
            stack.pop()
            if failed is not None:
                failed(rec)
            raise
        ends[row] = clock()
        stack.pop()
        if after is not None:
            after(rec, result)
        return result

    return wrapper


class _TracedContext:
    """A context manager whose entry and exit are each one span."""

    __slots__ = ("_factory", "_args", "_kwargs", "_inner", "_rec", "_enter", "_exit")

    def __init__(self, factory, args, kwargs, rec, enter_id, exit_id) -> None:
        self._factory, self._args, self._kwargs = factory, args, kwargs
        self._rec, self._enter, self._exit = rec, enter_id, exit_id
        self._inner = None

    def __enter__(self):
        row = self._rec.open(self._enter)
        try:
            self._inner = self._factory(*self._args, **self._kwargs)
            return self._inner.__enter__()
        finally:
            self._rec.close(row)

    def __exit__(self, *exc):
        row = self._rec.open(self._exit)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._rec.close(row)


def _traced_context(fn: Callable, span: str, rec: Recorder) -> Callable:
    enter_id = rec.name_id(f"{span}.enter")
    exit_id = rec.name_id(f"{span}.exit")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.current_op < 0:
            return fn(*args, **kwargs)
        return _TracedContext(fn, args, kwargs, rec, enter_id, exit_id)

    return wrapper


def _sweep_done(rec: Recorder, result) -> None:
    rec.count("engine.sweep_rows", result.shape[0])
    rec.peak("engine.matrix_mb", result.nbytes / 1e6)


def _make(kind: str, fn: Callable, span: str, rec: Recorder) -> Callable:
    if kind == "context":
        return _traced_context(fn, span, rec)
    if kind == "sweep":
        return _traced(fn, span, rec, after=_sweep_done)
    if kind == "spend":
        return _traced(
            fn,
            span,
            rec,
            after=lambda r, _: r.count("ledger.spends"),
            failed=lambda r: r.count("ledger.refused"),
        )
    if kind == "draw":
        return _traced(
            fn, span, rec, after=lambda r, res: r.count("rng.laplace_draws", np.size(res))
        )
    if kind == "capture":
        return _traced(
            fn, span, rec, after=lambda r, res: res and r.count("telemetry.flight_captures")
        )
    if kind == "audit":
        return _traced(
            fn, span, rec, after=lambda r, _: r.count("telemetry.audit_records")
        )
    return _traced(fn, span, rec)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def targets() -> List[Tuple[str, str, str, str]]:
    """:data:`TARGETS` plus every registered mechanism's ``build`` and
    ``validate`` and every synopsis class's ``distance``."""
    from repro.mechanisms import registered_mechanisms
    from repro.serving.synopsis import DistanceSynopsis

    rows = list(TARGETS)
    for mechanism in registered_mechanisms():
        cls = type(mechanism)
        for method in ("build", "validate"):
            rows.append((cls.__module__, f"{cls.__qualname__}.{method}", f"mechanisms.{method}", "call"))
    for cls in [DistanceSynopsis, *_subclasses(DistanceSynopsis)]:
        if "distance" in vars(cls):
            rows.append((cls.__module__, f"{cls.__qualname__}.distance", "synopsis.distance", "call"))
    return rows


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target for ``rec``; returns the function that
    restores the originals."""
    restore: List[Tuple[object, str, object]] = []
    done = set()
    for module_name, qualname, span, kind in targets():
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in vars(k))
            if (owner, attr) in done:
                continue
            done.add((owner, attr))
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_make(kind, raw.__func__, span, rec))
            else:
                wrapped = _make(kind, raw, span, rec)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, raw))
            continue
        original = getattr(owner, attr)
        wrapped = _make(kind, original, span, rec)
        # Callers that imported the function by name hold their own
        # reference: replace it there too.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and vars(module).get(attr) is original:
                setattr(module, attr, wrapped)
                restore.append((module, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


CALIBRATION_CALLS = 1000


def calibrate() -> Tuple[int, int]:
    """The wrappers' own cost per span, in ns: the part inside the
    span's interval and the part its parent is charged with."""
    rec = Recorder()
    noop = _traced(lambda: None, "calibrate.noop", rec)
    root = rec.begin_op("calibrate")
    for _ in range(CALIBRATION_CALLS):
        noop()
    rec.end_op(root)
    analysis = analyze(rec)
    inside = int(np.median(analysis.duration[1:]))
    outside = int(analysis.self_ns[0] // CALIBRATION_CALLS)
    return inside, outside


@dataclass
class Analysis:
    """Self times and layer attribution of one recorder's spans."""

    names: List[str]
    op_kinds: List[str]
    name: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    start: np.ndarray
    end: np.ndarray
    duration: np.ndarray
    self_ns: np.ndarray
    attributed: np.ndarray
    overhead: np.ndarray
    problems: List[str] = field(default_factory=list)

    def rows(self, span: str) -> np.ndarray:
        """Rows of every span with this name."""
        if span not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(span))

    def layer_rows(self, layer: str) -> np.ndarray:
        """Rows of every span of one layer."""
        ids = [i for i, n in enumerate(self.names) if _layer(n) == layer]
        return np.flatnonzero(np.isin(self.name, ids))

    def op_totals(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (operations, total traced ns)``."""
        roots = np.flatnonzero(self.parent == -1)
        totals: Dict[str, Tuple[int, int]] = {}
        for row in roots:
            kind = self.op_kinds[self.op[row]]
            count, total = totals.get(kind, (0, 0))
            totals[kind] = (count + 1, total + int(self.duration[row]))
        return totals

    def self_by_layer(self) -> Dict[str, Dict[str, int]]:
        """``op kind -> layer -> attributed self ns``, with the
        wrappers' estimated cost under :data:`TRACE_LAYER`."""
        layer_id = np.asarray([LAYERS.index(_layer(n)) for n in self.names], dtype=np.int64)
        kinds = sorted(set(self.op_kinds))
        kind_of_op = np.asarray([kinds.index(k) for k in self.op_kinds], dtype=np.int64)
        table = np.zeros((len(kinds), len(LAYERS)), dtype=np.int64)
        if len(self.name):
            np.add.at(table, (kind_of_op[self.op], layer_id[self.name]), self.attributed)
            np.add.at(table[:, LAYERS.index(TRACE_LAYER)], kind_of_op[self.op], self.overhead)
        return {
            kind: {layer: int(table[k, j]) for j, layer in enumerate(LAYERS)}
            for k, kind in enumerate(kinds)
        }

    def nearest(self, rows: np.ndarray, span_names: Sequence[str]) -> np.ndarray:
        """For each row, its nearest ancestor with one of the names
        (-1 where there is none)."""
        ids = [self.names.index(n) for n in span_names if n in self.names]
        anc = self.parent[rows].copy()
        # A parent row always precedes its child, so every chain ends.
        while True:
            climbing = (anc >= 0) & ~np.isin(self.name[np.maximum(anc, 0)], ids)
            if not climbing.any():
                return anc
            anc[climbing] = self.parent[anc[climbing]]


def _layer(span: str) -> str:
    """The layer a span name belongs to (its first dotted part)."""
    layer = span.split(".")[0]
    return layer if layer in LAYERS else BENCH_LAYER


def analyze(rec: Recorder, inside_ns=0, outside_ns=0) -> Analysis:
    """Self times, integrity problems and layer attribution, with the
    wrapper cost per span (:func:`calibrate`) given once or per
    operation."""
    def column(values: array) -> np.ndarray:
        return np.frombuffer(values, dtype=np.int64).copy() if len(values) else np.zeros(0, np.int64)

    name, parent, op = column(rec.name), column(rec.parent), column(rec.op)
    start, end = column(rec.start), column(rec.end)
    n = len(name)
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    covered = np.zeros(n, dtype=np.int64)
    np.add.at(covered, parent[child], duration[child])
    children = np.bincount(parent[child], minlength=n) if n else np.zeros(0, np.int64)
    self_ns = duration - covered

    problems: List[str] = []
    if (duration < 0).any():
        problems.append(f"{int((duration < 0).sum())} spans end before they start")
    up = parent[child]
    if (op[child] != op[up]).any():
        problems.append("spans nested under another operation's span")
    outside = (start[child] < start[up]) | (end[child] > end[up])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans reach outside their parent")
    order = child[np.lexsort((start[child], parent[child]))]
    same = parent[order][1:] == parent[order][:-1]
    if (same & (start[order][1:] < end[order][:-1])).any():
        problems.append("sibling spans overlap")
    roots = np.flatnonzero(parent == -1)
    if len(roots) != len(set(op[roots].tolist())) or (op < 0).any():
        problems.append("an operation has no single root span")
    per_op = np.zeros(len(rec.op_kinds), dtype=np.int64)
    np.add.at(per_op, op[op >= 0], self_ns[op >= 0])
    gap = np.abs(per_op[op[roots]] - duration[roots])
    if (gap > INTEGRITY_TOLERANCE_NS).any():
        problems.append(
            f"{int((gap > INTEGRITY_TOLERANCE_NS).sum())} operations whose self "
            f"times miss their total by more than {INTEGRITY_TOLERANCE_NS} ns"
        )

    def per_span(cost) -> np.ndarray:
        cost = np.asarray(cost, dtype=np.int64)
        return cost[np.maximum(op, 0)] if cost.ndim else np.full(n, int(cost))

    is_root = parent == -1
    charge = children * per_span(outside_ns) + np.where(is_root, 0, per_span(inside_ns))
    attributed = np.maximum(self_ns - charge, 0)
    return Analysis(
        names=list(rec.names),
        op_kinds=list(rec.op_kinds),
        name=name,
        parent=parent,
        op=op,
        start=start,
        end=end,
        duration=duration,
        self_ns=self_ns,
        attributed=attributed,
        overhead=self_ns - attributed,
        problems=problems,
    )


def dump(path: str, analysis: Analysis, rec: Recorder, meta: Dict[str, object]) -> None:
    """Write every span once, as a versioned JSON document."""
    origin = int(analysis.start.min()) if len(analysis.start) else 0
    document = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "clock": "thread_cpu_ns",
        **meta,
        "integrity": {
            "tolerance_ns": INTEGRITY_TOLERANCE_NS,
            "operations": len(analysis.op_kinds),
            "problems": analysis.problems,
        },
        "names": analysis.names,
        "operations": analysis.op_kinds,
        "spans": {
            "name": analysis.name.tolist(),
            "parent": analysis.parent.tolist(),
            "op": analysis.op.tolist(),
            "start": (analysis.start - origin).tolist(),
            "end": (analysis.end - origin).tolist(),
        },
        "counters": dict(rec.counters),
        "op_total_ns": {k: list(v) for k, v in analysis.op_totals().items()},
        "self_ns_by_layer": analysis.self_by_layer(),
    }
    with open(path, "w") as out:
        json.dump(document, out, separators=(",", ":"))
