"""Metric instruments and the process registry that owns them.

Three instrument kinds, deliberately minimal:

* :class:`Counter` — monotone event count (``inc``);
* :class:`Gauge` — point-in-time value (``set`` / ``add``);
* :class:`Histogram` — streaming latency/size distribution backed by a
  :class:`~repro.telemetry.sketch.QuantileSketch` (p50/p95/p99).

A :class:`MetricsRegistry` interns instruments by ``(name, labels)``:
asking twice for the same name and label set returns the same object,
so instrumented layers never coordinate — the service, the ledger, and
a benchmark all reach the same counter by naming it.  Label values are
stringified (Prometheus semantics); a name registered as one kind
cannot be re-registered as another.

Disabled telemetry swaps in the null instruments at the bottom of this
module: same interface, no state, no branches at call sites.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Tuple

from ..exceptions import TelemetryError
from .sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Quantiles every histogram reports in snapshots and expositions.
SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "labels", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Increase the counter; negative amounts are rejected."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self._value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "_value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge's value."""
        self._value += float(amount)


class Histogram:
    """A streaming distribution with p50/p95/p99 quantiles."""

    __slots__ = ("name", "labels", "_sketch")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._sketch = QuantileSketch()

    @property
    def sketch(self) -> QuantileSketch:
        """The backing quantile sketch."""
        return self._sketch

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._sketch.count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sketch.sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sketch.observe(value)

    def observe_many(self, values) -> None:
        """Record a batch of observations (vectorized)."""
        self._sketch.observe_many(values)

    def quantile(self, q: float) -> float:
        """The value at rank ``q``; ``nan`` when empty."""
        return self._sketch.quantile(q)


class MetricsRegistry:
    """Interns and snapshots the process's metric instruments.

    Interning, instance ordinals, and the enumeration behind
    :meth:`metrics` / :meth:`snapshot` hold a registry lock, so
    concurrent threads asking for the same ``(name, labels)`` always
    get the *same* instrument and a scraper thread can snapshot while
    the serving thread registers.  (Instrument mutation itself is a
    GIL-atomic int/float bump, or goes through the sketch's own lock.)
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._instances: Dict[LabelKey, int] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Mapping[str, object]):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, cannot reuse as {cls.kind}"
                    )
                return existing
            metric = cls(name, key[1])
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels)

    def instance_labels(self, **labels: object) -> Dict[str, str]:
        """Labels plus a registry-unique ``instance`` ordinal.

        Two services built with the same tenant in one registry get
        distinct label sets, so their counters never collide.
        """
        base = _label_key(labels)
        with self._lock:
            ordinal = self._instances.get(base, 0)
            self._instances[base] = ordinal + 1
        out = {k: v for k, v in base}
        out["instance"] = str(ordinal)
        return out

    def metrics(self) -> List[object]:
        """All instruments, sorted by (name, labels)."""
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics)
            ]

    def histograms(self, name: str) -> List[Histogram]:
        """Every histogram registered under ``name`` (any labels)."""
        return [
            m
            for m in self.metrics()
            if isinstance(m, Histogram) and m.name == name
        ]

    def merged_histogram(self, name: str) -> QuantileSketch | None:
        """One sketch folding every label set of histogram ``name``.

        ``None`` when the name has no histograms — callers distinguish
        "not instrumented" from "instrumented but empty".
        """
        parts = self.histograms(name)
        if not parts:
            return None
        merged = QuantileSketch()
        for part in parts:
            merged.merge(part.sketch)
        return merged

    def snapshot(self) -> List[Dict[str, object]]:
        """A JSON-safe list describing every instrument.

        Counters and gauges carry ``value``; histograms carry
        ``count`` / ``sum`` / ``min`` / ``max`` and the standard
        quantiles (``nan``-free: empty histograms report ``null``
        quantiles).
        """
        out: List[Dict[str, object]] = []
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": {k: v for k, v in metric.labels},
            }
            if isinstance(metric, Histogram):
                sketch = metric.sketch
                entry["count"] = sketch.count
                entry["sum"] = sketch.sum
                if sketch.count:
                    entry["min"] = sketch.min
                    entry["max"] = sketch.max
                    entry["quantiles"] = {
                        f"p{int(q * 100)}": sketch.quantile(q)
                        for q in SNAPSHOT_QUANTILES
                    }
                else:
                    entry["min"] = None
                    entry["max"] = None
                    entry["quantiles"] = {
                        f"p{int(q * 100)}": None
                        for q in SNAPSHOT_QUANTILES
                    }
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    def clear(self) -> None:
        """Drop every instrument and instance ordinal."""
        with self._lock:
            self._metrics.clear()
            self._instances.clear()


class _NullCounter(Counter):
    """A counter that ignores everything (disabled telemetry)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    """A gauge that ignores everything (disabled telemetry)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that ignores everything (disabled telemetry)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """A registry that hands out shared no-op instruments.

    Instrumented code keeps its straight-line shape — it asks for a
    counter and bumps it — while disabled telemetry reduces every call
    to a no-op method on a shared singleton.
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: object) -> Histogram:
        return NULL_HISTOGRAM

    def instance_labels(self, **labels: object) -> Dict[str, str]:
        out = {k: str(v) for k, v in labels.items()}
        out["instance"] = "0"
        return out
