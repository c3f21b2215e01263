"""Continuous profiling and the slow-query flight recorder.

PR 6's telemetry records *that* queries were slow — latency quantiles,
budget gauges — but never *why*.  This module adds the attribution
layer every production serving stack grows at this stage, in three
purely observational pieces:

* :class:`PhaseProfiler` — a deterministic phase profiler that
  piggybacks on the :class:`~repro.telemetry.tracer.Tracer`'s span
  listeners: every span open/close is charged to its phase (the span
  name — ``synopsis.build``, ``hubs.build``, ``epoch.refresh``,
  ``batch.serve``, ``engine.*`` ...), accumulating wall time, CPU
  time (:func:`time.process_time`), and :mod:`tracemalloc` allocation
  deltas.  *Self* time excludes child spans, so the self-times of all
  phases sum exactly to the root spans' wall clock — attribution that
  adds up instead of double counting.
* :class:`SamplingProfiler` — an optional low-overhead background
  stack sampler: a daemon thread wakes every few milliseconds, grabs
  the target thread's frame via :func:`sys._current_frames`, and
  counts collapsed stacks.  Output renders as flamegraph.pl-compatible
  collapsed-stack text (``frame;frame;frame count``) — the exporter
  that sits next to the JSON and Prometheus ones.
* :class:`FlightRecorder` — a bounded ring buffer of exemplar records
  for slow queries: pair, route, mechanism, epoch, the finished span
  subtree, and a per-phase breakdown.  A query is "slow" when its
  latency exceeds an adaptive threshold derived from the recorder's
  own live per-route :class:`~repro.telemetry.sketch.QuantileSketch`
  p99 (with a fixed-threshold fallback while the sketch warms up).
  Dumps as a versioned JSON document.

Like metrics, traces, and audit, none of this ever touches an
:class:`~repro.rng.Rng`: seeded answers are bit-identical with
profiling and flight recording on, off, or dumping to disk.  The null
twins (:data:`NULL_PROFILER`, :data:`NULL_FLIGHT`) keep disabled call
sites branch-free.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from collections import deque
from typing import Deque, Dict, List, Mapping, Tuple

from .. import documents
from ..exceptions import TelemetryError
from .sketch import QuantileSketch
from .tracer import Span, Tracer

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "FLIGHT_FORMAT",
    "FLIGHT_VERSION",
    "PhaseProfiler",
    "PhaseStat",
    "SamplingProfiler",
    "FlightRecorder",
    "NullPhaseProfiler",
    "NullFlightRecorder",
    "NULL_PROFILER",
    "NULL_FLIGHT",
    "profile_document",
    "samples_to_collapsed",
    "span_phase_breakdown",
    "validate_profile",
    "validate_flight",
]

PROFILE_FORMAT = "repro-profile"
PROFILE_VERSION = 1

FLIGHT_FORMAT = "repro-flight"
FLIGHT_VERSION = 1

#: What each profile phase row and each flight record carries for the
#: ``profile`` and ``flight`` CLIs to read.
_PHASE_KEYS = {
    "phase": str, "count": int, "wall_seconds": documents.NUMBER,
    "wall_self_seconds": documents.NUMBER, "cpu_seconds": documents.NUMBER,
    "alloc_net_bytes": documents.NUMBER,
}
_RECORD_KEYS = {
    "seq": int, "route": str, "latency_seconds": documents.NUMBER,
    "threshold_seconds": documents.NUMBER, "phases": dict,
}


# ----------------------------------------------------------------------
# Deterministic phase profiler
# ----------------------------------------------------------------------


class PhaseStat:
    """Accumulated cost of one phase (one span name)."""

    __slots__ = (
        "count",
        "wall_seconds",
        "wall_self_seconds",
        "cpu_seconds",
        "cpu_self_seconds",
        "alloc_net_bytes",
    )

    def __init__(self) -> None:
        self.count = 0
        self.wall_seconds = 0.0
        self.wall_self_seconds = 0.0
        self.cpu_seconds = 0.0
        self.cpu_self_seconds = 0.0
        self.alloc_net_bytes = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe stat row (phase name added by the profiler)."""
        return {
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "wall_self_seconds": self.wall_self_seconds,
            "cpu_seconds": self.cpu_seconds,
            "cpu_self_seconds": self.cpu_self_seconds,
            "alloc_net_bytes": self.alloc_net_bytes,
        }


class _Frame:
    """One open span's measurement state on the profiler's stack."""

    __slots__ = ("span", "wall", "cpu", "alloc", "child_wall", "child_cpu")

    def __init__(self, span: Span, wall: float, cpu: float, alloc: int):
        self.span = span
        self.wall = wall
        self.cpu = cpu
        self.alloc = alloc
        self.child_wall = 0.0
        self.child_cpu = 0.0


class PhaseProfiler:
    """Deterministic per-phase cost attribution over tracer spans.

    Attach to a tracer (:meth:`attach`, or let
    :meth:`Telemetry.with_profiler <repro.telemetry.Telemetry.with_profiler>`
    do it) and every span becomes a *phase sample*: wall-clock and CPU
    time plus the net :mod:`tracemalloc` allocation delta are charged
    to the span's name.  ``wall_self_seconds`` excludes time spent in
    child spans, so summing it over all phases reproduces the root
    spans' total wall clock — the invariant ``repro.cli profile
    --check`` verifies.

    Allocation tracing is opt-in: tracemalloc makes every allocation
    in the process pay a hash-table update, builds included.  With
    ``trace_allocations=True`` the profiler starts tracemalloc on
    attach, and :meth:`detach` stops it if the profiler was the one
    to start it; without it ``alloc_net_bytes`` stays 0.
    """

    enabled = True

    def __init__(self, trace_allocations: bool = False) -> None:
        self._trace_allocations = trace_allocations
        self._stack: List[_Frame] = []
        self._phases: Dict[str, PhaseStat] = {}
        self._tracer: Tracer | None = None
        self._started_tracemalloc = False

    # -- tracer listener surface ---------------------------------------

    def attach(self, tracer: Tracer) -> "PhaseProfiler":
        """Start observing ``tracer``'s spans; returns self."""
        if self._tracer is not None:
            if self._tracer is tracer:
                return self
            raise TelemetryError(
                "PhaseProfiler is already attached to another tracer"
            )
        if self._trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        tracer.add_listener(self)
        self._tracer = tracer
        return self

    def detach(self) -> None:
        """Stop observing; accumulated phase stats are kept."""
        if self._tracer is not None:
            self._tracer.remove_listener(self)
            self._tracer = None
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False
        self._stack.clear()

    def _alloc_now(self) -> int:
        if self._trace_allocations and tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[0]
        return 0

    def on_span_start(self, span: Span) -> None:
        self._stack.append(
            _Frame(
                span,
                time.perf_counter(),
                time.process_time(),
                self._alloc_now(),
            )
        )

    def on_span_finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1].span is not span:
            # A span opened before attach is closing now; its costs
            # were never sampled, so there is nothing to attribute.
            return
        frame = self._stack.pop()
        wall = time.perf_counter() - frame.wall
        cpu = time.process_time() - frame.cpu
        alloc = self._alloc_now() - frame.alloc
        stat = self._phases.get(span.name)
        if stat is None:
            stat = self._phases[span.name] = PhaseStat()
        stat.count += 1
        stat.wall_seconds += wall
        stat.cpu_seconds += cpu
        stat.alloc_net_bytes += alloc
        stat.wall_self_seconds += max(wall - frame.child_wall, 0.0)
        stat.cpu_self_seconds += max(cpu - frame.child_cpu, 0.0)
        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += wall
            parent.child_cpu += cpu

    # -- read surface --------------------------------------------------

    @property
    def attached(self) -> bool:
        """Whether the profiler is currently observing a tracer."""
        return self._tracer is not None

    def phases(self) -> Dict[str, PhaseStat]:
        """Accumulated stats keyed by phase (span) name."""
        return dict(self._phases)

    def total_wall_seconds(self) -> float:
        """Sum of self wall time over all phases — exactly the wall
        clock spent inside root spans (children excluded from their
        parents, never double counted)."""
        return sum(
            s.wall_self_seconds for s in self._phases.values()
        )

    def phase_summary(self) -> List[Dict[str, object]]:
        """JSON-safe rows sorted by descending self wall time."""
        rows = []
        for name, stat in self._phases.items():
            row: Dict[str, object] = {"phase": name}
            row.update(stat.as_dict())
            rows.append(row)
        rows.sort(
            key=lambda r: (-float(r["wall_self_seconds"]), r["phase"])
        )
        return rows

    def clear(self) -> None:
        """Drop accumulated stats (open-span state unaffected)."""
        self._phases.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseProfiler(phases={len(self._phases)}, "
            f"total_wall={self.total_wall_seconds():.6g}s)"
        )


class NullPhaseProfiler(PhaseProfiler):
    """A profiler that records nothing (disabled bundles)."""

    enabled = False

    def attach(self, tracer: Tracer) -> "NullPhaseProfiler":
        return self

    def detach(self) -> None:
        pass

    def on_span_start(self, span: Span) -> None:
        pass

    def on_span_finish(self, span: Span) -> None:
        pass


#: The shared disabled profiler every bundle carries by default.
NULL_PROFILER = NullPhaseProfiler()


# ----------------------------------------------------------------------
# Background sampling profiler
# ----------------------------------------------------------------------


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Module-ish label: strip directories and the .py suffix so stacks
    # stay readable and stable across checkouts.
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    base = filename[slash + 1 :]
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}.{code.co_name}"


class SamplingProfiler:
    """A thread-based stack sampler with collapsed-stack output.

    ``start()`` spawns a daemon thread that wakes every
    :attr:`interval_seconds`, snapshots the Python stack of the thread
    that called ``start()``, and counts the collapsed root-to-leaf
    stack.  ``stop()`` takes one final synchronous sample — so even a
    sub-interval run yields a non-empty profile — and joins the
    thread.  Overhead is one frame walk per tick on a thread that is
    asleep the rest of the time; the sampled thread itself is never
    interrupted.

    This is the stack's first real second thread — the metrics
    registry and quantile sketch it might observe around are locked
    accordingly.
    """

    #: Seconds between samples.
    interval_seconds = 0.002

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_id: int | None = None

    def _sample_once(self) -> None:
        frames = sys._current_frames()
        frame = frames.get(self._target_id)
        if frame is None:
            return
        stack: List[str] = []
        while frame is not None:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        key = tuple(reversed(stack))
        self._counts[key] = self._counts.get(key, 0) + 1

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_seconds):
            self._sample_once()

    def start(self) -> None:
        """Begin sampling the calling thread."""
        if self._thread is not None:
            raise TelemetryError("SamplingProfiler is already running")
        self._target_id = threading.get_ident()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Take one last sample, stop the thread, keep the counts."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        # The final synchronous sample guarantees a short profiled
        # region still produces at least one stack.
        self._sample_once()

    @property
    def running(self) -> bool:
        """Whether the sampler thread is alive."""
        return self._thread is not None

    @property
    def sample_count(self) -> int:
        """Total stacks captured so far."""
        return sum(self._counts.values())

    def counts(self) -> Dict[Tuple[str, ...], int]:
        """Collapsed stack (root-to-leaf frames) -> sample count."""
        return dict(self._counts)

    def collapsed(self) -> str:
        """flamegraph.pl-compatible collapsed-stack text."""
        return samples_to_collapsed(self._counts)

    def clear(self) -> None:
        """Drop accumulated samples."""
        self._counts.clear()


def samples_to_collapsed(
    counts: Mapping[Tuple[str, ...], int] | Mapping[str, int]
) -> str:
    """Render stack counts as collapsed-stack text, one stack per
    line: ``frame;frame;frame count``.  Accepts tuple keys (from the
    sampler) or pre-joined ``"a;b;c"`` string keys (from a JSON
    round trip); lines are sorted for golden-file stability."""
    lines = []
    for key, count in counts.items():
        stack = ";".join(key) if isinstance(key, tuple) else str(key)
        lines.append(f"{stack} {int(count)}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Profile document
# ----------------------------------------------------------------------


def profile_document(
    profiler: "PhaseProfiler",
    sampler: "SamplingProfiler | None" = None,
) -> Dict[str, object]:
    """The versioned JSON profile document for one profiled run.

    Carries the deterministic phase table (sorted by self wall time)
    and, when a sampling profiler ran too, its collapsed-stack text
    and sample count — one artifact holding both views of the run.
    """
    doc = documents.new(
        PROFILE_FORMAT,
        PROFILE_VERSION,
        total_wall_seconds=profiler.total_wall_seconds(),
        phases=profiler.phase_summary(),
    )
    if sampler is not None:
        doc["samples"] = sampler.sample_count
        doc["collapsed"] = sampler.collapsed()
    return doc


def validate_profile(doc: object) -> Dict[str, object]:
    """Check a parsed profile document; returns it typed as a dict."""
    doc = documents.check(
        doc, PROFILE_FORMAT, PROFILE_VERSION, TelemetryError,
        "profile document",
        {"total_wall_seconds": documents.NUMBER, "phases": list},
    )
    for i, row in enumerate(doc["phases"]):
        documents.require(
            row, TelemetryError, f"profile phase #{i}", _PHASE_KEYS
        )
    return doc


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def span_phase_breakdown(span: Span) -> Dict[str, float]:
    """Per-phase wall seconds inside one finished span subtree.

    Child durations aggregate by span name; the root's own row is its
    *self* time (children excluded), so the values sum to the root's
    duration.
    """
    breakdown: Dict[str, float] = {}
    child_total = 0.0

    def _walk(node: Span) -> None:
        nonlocal child_total
        for child in node.children:
            breakdown[child.name] = (
                breakdown.get(child.name, 0.0) + child.duration_seconds
            )
            if node is span:
                child_total += child.duration_seconds
            _walk(child)

    _walk(span)
    breakdown[span.name] = (
        breakdown.get(span.name, 0.0)
        + max(span.duration_seconds - child_total, 0.0)
    )
    return breakdown


class FlightRecorder:
    """A bounded ring buffer of slow-query exemplar records.

    Every served query's latency is offered to :meth:`consider`.  The
    recorder keeps one live :class:`QuantileSketch` per ``route``
    (point, intra, cross, batch-query, ...); once a route's sketch has
    :attr:`warmup` observations the capture threshold is its live p-
    :attr:`quantile` latency, before that the fixed
    ``threshold_seconds`` fallback applies (``None`` = capture nothing
    until warmed).  A latency above threshold captures an exemplar —
    pair, route, mechanism, epoch, tenant, the finished span subtree,
    and the per-phase breakdown derived from it — into a deque of
    :attr:`capacity` records, evicting the oldest.

    Purely observational: the recorder never touches an rng, and the
    threshold adapts only to *observed latencies*, never to answers.
    """

    enabled = True

    #: Exemplars retained; the oldest is evicted first.
    capacity = 64
    #: The latency quantile a warm route's threshold tracks.
    quantile = 0.99
    #: Observations a route needs before its threshold adapts.
    warmup = 200

    def __init__(self, threshold_seconds: float | None = None) -> None:
        if threshold_seconds is not None and threshold_seconds <= 0.0:
            raise TelemetryError(
                "flight threshold must be positive, got "
                f"{threshold_seconds!r}"
            )
        self.threshold_seconds = threshold_seconds
        self._sketches: Dict[str, QuantileSketch] = {}
        self._records: Deque[Dict[str, object]] = deque(
            maxlen=self.capacity
        )
        self._seq = 0
        self._captured = 0
        self._considered = 0

    def current_threshold(self, route: str = "point") -> float | None:
        """The capture threshold a query on ``route`` faces right now
        (``None`` while cold with no fixed fallback)."""
        sketch = self._sketches.get(route)
        if sketch is not None and sketch.count >= self.warmup:
            return sketch.quantile(self.quantile)
        return self.threshold_seconds

    def consider(
        self,
        latency_seconds: float,
        *,
        pair: Tuple[object, object] | None = None,
        route: str = "point",
        mechanism: str | None = None,
        epoch: int | None = None,
        tenant: str | None = None,
        span: Span | None = None,
        cache_hit: bool | None = None,
    ) -> bool:
        """Offer one served query; capture and return True if slow.

        The threshold decision precedes the observation, so a slow
        query cannot raise the bar that judges it.
        """
        self._considered += 1
        threshold = self.current_threshold(route)
        sketch = self._sketches.get(route)
        if sketch is None:
            sketch = self._sketches[route] = QuantileSketch()
        adaptive = sketch.count >= self.warmup
        sketch.observe(latency_seconds)
        if threshold is None or latency_seconds <= threshold:
            return False
        record: Dict[str, object] = {
            "seq": self._seq,
            "ts": time.time(),  # privlint: ignore[PL4] observational record timestamp
            "latency_seconds": float(latency_seconds),
            "threshold_seconds": float(threshold),
            "adaptive": adaptive,
            "route": route,
            "pair": (
                [str(pair[0]), str(pair[1])] if pair is not None else None
            ),
            "mechanism": mechanism,
            "epoch": epoch,
            "tenant": tenant,
            "cache_hit": cache_hit,
        }
        # NULL_SPAN (span_id 0) and unfinished spans carry no signal.
        if span is not None and span.span_id > 0:
            record["span"] = span.to_dict()
            record["phases"] = span_phase_breakdown(span)
        else:
            record["span"] = None
            record["phases"] = {}
        self._seq += 1
        self._captured += 1
        self._records.append(record)
        return True

    # -- read surface --------------------------------------------------

    @property
    def captured(self) -> int:
        """Exemplars captured over the recorder's lifetime (>= the
        ring's current length once eviction starts)."""
        return self._captured

    @property
    def considered(self) -> int:
        """Queries offered to :meth:`consider` so far."""
        return self._considered

    def records(self) -> List[Dict[str, object]]:
        """The retained exemplars, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def to_document(self) -> Dict[str, object]:
        """The versioned JSON flight-record document."""
        return documents.new(
            FLIGHT_FORMAT,
            FLIGHT_VERSION,
            capacity=self.capacity,
            quantile=self.quantile,
            warmup=self.warmup,
            threshold_seconds=self.threshold_seconds,
            considered=self._considered,
            captured=self._captured,
            records=self.records(),
        )

    def clear(self) -> None:
        """Drop retained records and live sketches (capacity kept)."""
        self._records.clear()
        self._sketches.clear()
        self._captured = 0
        self._considered = 0
        self._seq = 0


class NullFlightRecorder(FlightRecorder):
    """A flight recorder that captures nothing (disabled bundles)."""

    enabled = False

    def consider(self, latency_seconds, **kwargs) -> bool:
        return False


#: The shared disabled flight recorder (every bundle's default).
NULL_FLIGHT = NullFlightRecorder()


def validate_flight(doc: object) -> Dict[str, object]:
    """Check a parsed flight document; returns it typed as a dict."""
    doc = documents.check(
        doc, FLIGHT_FORMAT, FLIGHT_VERSION, TelemetryError,
        "flight-record document",
        {"capacity": int, "considered": int, "captured": int,
         "records": list},
    )
    for i, record in enumerate(doc["records"]):
        documents.require(
            record, TelemetryError, f"flight record #{i}", _RECORD_KEYS
        )
    return doc
