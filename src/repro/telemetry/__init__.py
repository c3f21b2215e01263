"""``repro.telemetry`` — metrics, traces, and their exposition.

The observability layer under the serving stack: a
:class:`~repro.telemetry.registry.MetricsRegistry` of counters,
gauges, and streaming-quantile histograms
(:class:`~repro.telemetry.sketch.QuantileSketch`), a nesting span
:class:`~repro.telemetry.tracer.Tracer`, and exporters for a JSON
snapshot document and Prometheus text exposition.  Everything needs
only the standard library and numpy, is deterministic to snapshot,
and — critically for a privacy library — never touches an
:class:`~repro.rng.Rng`: seeded query answers are bit-identical with
instrumentation on or off.

A :class:`Telemetry` object bundles one registry with one tracer,
plus opt-in extras attached via ``with_*`` derivations: a
tamper-evident audit trail (:mod:`~repro.telemetry.audit`), a
JSON-line structured event log (:mod:`~repro.telemetry.logging`), a
deterministic phase profiler and slow-query flight recorder
(:mod:`~repro.telemetry.profile`).  :meth:`Telemetry.emit` is the one
call that records a lifecycle event: the event log, the audit chain
(for :data:`~repro.telemetry.audit.AUDITED_KINDS` only), and a trace
point event each get it once, correlated with the bundle's own
innermost open span.  The process has a default bundle
(:func:`get_telemetry`), services accept an explicit ``telemetry=``
override, and :func:`use_telemetry` scopes a bundle over a ``with``
block so deep layers (mechanism selection, budget ledger, hub builds,
engine kernels) that look the bundle up dynamically land in the
caller's registry.  Disabled telemetry (:data:`NULL_TELEMETRY`, or
``Telemetry(enabled=False)``) swaps in null instruments — same call
sites, no state, no measurable work.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from .. import documents
from .audit import (
    AUDITED_KINDS,
    AUDIT_FORMAT,
    AUDIT_VERSION,
    AuditLog,
    NULL_AUDIT,
    NullAuditLog,
    read_audit_log,
    replay_odometer,
    verify_against_ledger,
    verify_against_snapshot,
    verify_audit_log,
)
from .export import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    budget_gauges,
    snapshot_budgets,
    snapshot_to_prometheus,
    validate_snapshot,
)
from .logging import (
    EVENT_LOG_FORMAT,
    EVENT_LOG_VERSION,
    EventLog,
    NULL_LOG,
    NullEventLog,
    read_event_log,
)
from .monitor import (
    Alert,
    AlertRule,
    evaluate_rules,
    load_alert_rules,
)
from .profile import (
    FLIGHT_FORMAT,
    FLIGHT_VERSION,
    FlightRecorder,
    NULL_FLIGHT,
    NULL_PROFILER,
    NullFlightRecorder,
    NullPhaseProfiler,
    PROFILE_FORMAT,
    PROFILE_VERSION,
    PhaseProfiler,
    SamplingProfiler,
    profile_document,
    samples_to_collapsed,
    span_phase_breakdown,
    validate_flight,
    validate_profile,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .sketch import QuantileSketch
from .tracer import NullTracer, Span, Tracer

__all__ = [
    "AUDITED_KINDS",
    "AUDIT_FORMAT",
    "AUDIT_VERSION",
    "Alert",
    "AlertRule",
    "AuditLog",
    "Counter",
    "EVENT_LOG_FORMAT",
    "EVENT_LOG_VERSION",
    "EventLog",
    "FLIGHT_FORMAT",
    "FLIGHT_VERSION",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullAuditLog",
    "NullEventLog",
    "NullFlightRecorder",
    "NullPhaseProfiler",
    "NullRegistry",
    "NullTracer",
    "NULL_AUDIT",
    "NULL_FLIGHT",
    "NULL_LOG",
    "NULL_PROFILER",
    "NULL_TELEMETRY",
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "PhaseProfiler",
    "QuantileSketch",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SamplingProfiler",
    "Span",
    "Telemetry",
    "Tracer",
    "budget_gauges",
    "evaluate_rules",
    "get_telemetry",
    "load_alert_rules",
    "profile_document",
    "read_audit_log",
    "read_event_log",
    "replay_odometer",
    "samples_to_collapsed",
    "set_default_telemetry",
    "snapshot_budgets",
    "snapshot_to_prometheus",
    "span_phase_breakdown",
    "use_telemetry",
    "validate_flight",
    "validate_profile",
    "validate_snapshot",
    "verify_against_ledger",
    "verify_against_snapshot",
    "verify_audit_log",
]


class Telemetry:
    """One registry + one tracer, the unit services are handed.

    ``Telemetry()`` is a live bundle; ``Telemetry(enabled=False)``
    carries the shared null registry and tracer — instrumented code
    is oblivious either way.  Every bundle also carries an audit log
    (:data:`NULL_AUDIT` unless one is attached), a structured event
    log (:data:`NULL_LOG`), a phase profiler (:data:`NULL_PROFILER`),
    and a slow-query flight recorder (:data:`NULL_FLIGHT`), so layers
    that emit to any of them need no separate plumbing; lifecycle
    events go through :meth:`emit`.  The ``with_*`` derivations
    (:meth:`with_audit`, :meth:`with_log`, :meth:`with_profiler`,
    :meth:`with_flight`) each return a bundle sharing this one's other
    instruments but carrying the given one — every extra surface is
    opt-in and orthogonal to whether metrics are enabled.
    """

    __slots__ = (
        "registry", "tracer", "audit", "log", "profiler", "flight"
    )

    def __init__(self, enabled: bool = True) -> None:
        if not enabled:
            self.registry = _NULL_REGISTRY
            self.tracer = _NULL_TRACER
        else:
            self.registry = MetricsRegistry()
            # Surface bounded-history evictions as a counter.  The
            # callback is only invoked on an actual drop, so the
            # counter is not interned (and snapshots are unchanged)
            # until spans are really being lost.
            registry = self.registry
            self.tracer = Tracer(
                on_drop=lambda: registry.counter("trace.dropped").inc()
            )
        self.audit = NULL_AUDIT
        self.log = NULL_LOG
        self.profiler = NULL_PROFILER
        self.flight = NULL_FLIGHT

    @property
    def enabled(self) -> bool:
        """Whether this bundle records anything."""
        return self.registry.enabled

    def span(self, name: str, **attributes: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)

    def emit(
        self,
        kind: str,
        *,
        tenant: str | None = None,
        epoch: int | None = None,
        **fields: object,
    ) -> None:
        """Record one lifecycle event in every sink, once.

        The event log gets it, the audit chain gets it when ``kind``
        is one of :data:`~repro.telemetry.audit.AUDITED_KINDS`, and
        the trace gets it as a point event.  The journal records carry
        the ``(trace_id, span_id)`` of this bundle's innermost open
        span, so journals shared between bundles stay correlated with
        the bundle that wrote each record.
        """
        trace_id, span_id = self.tracer.current_ids()
        self.log.emit(
            kind, tenant=tenant, epoch=epoch, trace_id=trace_id,
            span_id=span_id, **fields,
        )
        if kind in AUDITED_KINDS:
            self.audit.record(
                kind, epoch=epoch, tenant=tenant, trace_id=trace_id,
                span_id=span_id, **fields,
            )
        self.tracer.event(kind, tenant=tenant, epoch=epoch, **fields)

    def snapshot(self) -> Dict[str, object]:
        """The JSON-safe interchange document for this bundle."""
        return documents.new(
            SNAPSHOT_FORMAT,
            SNAPSHOT_VERSION,
            metrics=self.registry.snapshot(),
            spans=self.tracer.snapshot(),
        )

    def prometheus_text(self) -> str:
        """This bundle's metrics as Prometheus text exposition."""
        return snapshot_to_prometheus(self.snapshot())

    def _clone(self) -> "Telemetry":
        clone = Telemetry.__new__(Telemetry)
        clone.registry = self.registry
        clone.tracer = self.tracer
        clone.audit = self.audit
        clone.log = self.log
        clone.profiler = self.profiler
        clone.flight = self.flight
        return clone

    def with_audit(self, audit: AuditLog) -> "Telemetry":
        """A bundle sharing this one's instruments, writing ``audit``.

        Works on a disabled bundle too: the clone keeps the null
        registry and tracer but still records audit events, so a
        deployment can run with metrics off and the audit trail on.
        """
        clone = self._clone()
        clone.audit = audit
        return clone

    def with_log(self, log: EventLog) -> "Telemetry":
        """A bundle sharing this one's instruments, emitting to
        ``log``."""
        clone = self._clone()
        clone.log = log
        return clone

    def with_profiler(self, profiler: PhaseProfiler) -> "Telemetry":
        """A bundle sharing this one's instruments, attributing span
        costs to ``profiler``.  The profiler is attached as a tracer
        listener — but only when this bundle's tracer is live: a
        disabled bundle opens no spans, and attaching a listener to
        the shared null tracer would leak across bundles."""
        clone = self._clone()
        clone.profiler = profiler
        if profiler.enabled and self.tracer.enabled:
            profiler.attach(clone.tracer)
        return clone

    def with_flight(self, flight: FlightRecorder) -> "Telemetry":
        """A bundle sharing this one's instruments, offering served
        query latencies to ``flight``.  Unlike the profiler, the
        flight recorder needs no tracer: services call
        ``flight.consider(...)`` directly, so it works on a disabled
        bundle too."""
        clone = self._clone()
        clone.flight = flight
        return clone

    def clear(self) -> None:
        """Reset metrics and span history (no-op when disabled)."""
        self.registry.clear()
        self.tracer.clear()


_NULL_REGISTRY = NullRegistry()
_NULL_TRACER = NullTracer()

#: The shared disabled bundle: every instrument is a no-op singleton.
NULL_TELEMETRY = Telemetry(enabled=False)

_default = Telemetry()
_active: List[Telemetry] = []


def get_telemetry() -> Telemetry:
    """The bundle instrumentation should use right now.

    The innermost :func:`use_telemetry` scope wins; otherwise the
    process default.
    """
    if _active:
        return _active[-1]
    return _default


def set_default_telemetry(telemetry: Telemetry) -> Telemetry:
    """Replace the process-default bundle; returns the previous one."""
    global _default
    previous = _default
    _default = telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scope a bundle over a block: :func:`get_telemetry` returns it.

    This is how a service's injected bundle reaches layers it does not
    call directly — the ledger spend inside a synopsis build, the
    mechanism-selection contest, a hub-structure build.
    """
    _active.append(telemetry)
    try:
        yield telemetry
    finally:
        _active.pop()
