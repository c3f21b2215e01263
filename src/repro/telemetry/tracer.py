"""Lightweight span tracing for the serving stack.

A :class:`Tracer` records named, timed spans with parent/child nesting
driven by a plain context-manager stack — ``with tracer.span("epoch.refresh",
tenant=...)`` opens a span, and any span opened before it closes
becomes its child.  Spans carry JSON-safe attributes set at open time
or mid-flight (:meth:`Span.set_attribute`); zero-duration
:meth:`Tracer.event` marks point-in-time facts like budget spends.

The last :data:`MAX_FINISHED_ROOTS` finished root spans are kept in a
bounded deque (oldest evicted), so a long-running service can trace
every epoch without unbounded memory; evictions are counted (:attr:`Tracer.dropped`, and an optional
``on_drop`` callback lets a bundle surface the loss as a
``trace.dropped`` counter).  Every span gets a tracer-unique integer
id; :meth:`Tracer.current_ids` reports the ``(trace_id, span_id)``
pair of the innermost open span so other subsystems — the audit log,
the structured event log — can correlate their records with the trace
that produced them.

Span *listeners* (:meth:`Tracer.add_listener`) observe every span
open and close — the hook the deterministic phase profiler
(:class:`repro.telemetry.profile.PhaseProfiler`) hangs off so it can
attribute CPU time and allocations to phases without a single extra
call site.  With no listeners registered the span path pays one truth
test and nothing else.
The tracer is deliberately single-threaded — it matches the library's
synchronous serving loop; the planned async front-end will scope one
tracer per task.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Tuple

__all__ = ["MAX_FINISHED_ROOTS", "Span", "Tracer", "NullTracer", "NULL_SPAN"]

#: Finished root spans a tracer keeps; older ones are evicted.
MAX_FINISHED_ROOTS = 1000


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Span:
    """One timed, named, attributed unit of work."""

    __slots__ = (
        "name", "attributes", "children", "span_id", "_start", "_end"
    )

    def __init__(
        self,
        name: str,
        attributes: Dict[str, object],
        span_id: int = 0,
    ) -> None:
        self.name = name
        self.attributes = {
            k: _json_safe(v) for k, v in attributes.items()
        }
        self.children: List["Span"] = []
        self.span_id = span_id
        self._start = time.perf_counter()
        self._end: float | None = None

    @property
    def finished(self) -> bool:
        """Whether the span has closed."""
        return self._end is not None

    @property
    def duration_seconds(self) -> float:
        """Wall-clock span length; 0 while still open."""
        if self._end is None:
            return 0.0
        return self._end - self._start

    def set_attribute(self, key: str, value: object) -> None:
        """Attach or update an attribute mid-span."""
        self.attributes[key] = _json_safe(value)

    def _finish(self) -> None:
        self._end = time.perf_counter()

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe span tree rooted here."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Records a bounded history of finished root span trees."""

    enabled = True

    def __init__(self, on_drop: Callable[[], None] | None = None) -> None:
        self._stack: List[Span] = []
        self._finished: Deque[Span] = deque(maxlen=MAX_FINISHED_ROOTS)
        self._seq = 0
        self._dropped = 0
        self._on_drop = on_drop
        self._listeners: List[object] = []

    def add_listener(self, listener: object) -> None:
        """Subscribe to span lifecycle events.

        ``listener.on_span_start(span)`` fires right after a span
        opens (it is already on the stack) and
        ``listener.on_span_finish(span)`` right after it closes (its
        duration is final).  Listeners observe; they must not open
        spans themselves.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        """Unsubscribe a listener added by :meth:`add_listener`."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _next_id(self) -> int:
        self._seq += 1
        return self._seq

    def _retire(self, span: Span) -> None:
        # The deque would evict silently; count the loss (and tell the
        # bundle, which surfaces it as the ``trace.dropped`` counter).
        if len(self._finished) == MAX_FINISHED_ROOTS:
            self._dropped += 1
            if self._on_drop is not None:
                self._on_drop()
        self._finished.append(span)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span; nests under the innermost open span."""
        span = Span(name, attributes, span_id=self._next_id())
        self._stack.append(span)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_start(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span._finish()
            if self._listeners:
                for listener in self._listeners:
                    listener.on_span_finish(span)
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self._retire(span)

    def event(self, name: str, **attributes: object) -> Span:
        """Record a zero-duration point event."""
        span = Span(name, attributes, span_id=self._next_id())
        span._end = span._start  # a point in time, not an interval
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._retire(span)
        return span

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def current_ids(self) -> Tuple[int | None, int | None]:
        """``(trace_id, span_id)`` of the innermost open span.

        The trace id is the id of the open *root* span (the outermost
        ancestor); ``(None, None)`` when no span is open.
        """
        if not self._stack:
            return (None, None)
        return (self._stack[0].span_id, self._stack[-1].span_id)

    @property
    def dropped(self) -> int:
        """Finished roots evicted from the bounded history so far."""
        return self._dropped

    def finished_roots(self) -> List[Span]:
        """Finished root spans, oldest first."""
        return list(self._finished)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-safe list of finished root span trees."""
        return [span.to_dict() for span in self._finished]

    def clear(self) -> None:
        """Drop the finished-span history (open spans unaffected)."""
        self._finished.clear()


class _NullSpanContext:
    """A reentrant context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> "Span":
        return NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        pass


class _NullSpan(Span):
    """A span that ignores attributes (disabled telemetry)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", {})
        self._finish()

    def set_attribute(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """A tracer that records nothing (disabled telemetry)."""

    enabled = False

    def span(self, name: str, **attributes: object):
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **attributes: object) -> Span:
        return NULL_SPAN
