"""Streaming quantile sketch for latency histograms.

A DDSketch-style log-bucketed sketch: values are mapped to geometric
buckets ``gamma**k`` with ``gamma = (1 + a) / (1 - a)``, which
guarantees every reported quantile is within *relative* accuracy ``a``
of a true observed value.  Buckets are a sparse dict, so memory is
proportional to the dynamic range of the data (a few hundred ints for
latencies spanning nanoseconds to minutes), not the observation count.

The sketch is mergeable — :meth:`QuantileSketch.merge` adds another
sketch's buckets bucket-by-bucket, which is exact — so per-service
histograms can be combined into fleet-wide percentiles without bias.

The sketch is thread-safe: ingest, merge, and quantile reads hold a
per-sketch lock, so a background thread (the stack sampler, a metrics
scraper) can read quantiles while the serving thread observes into
the same sketch.  Lock ordering for two-sketch operations
(:meth:`QuantileSketch.merge`) is by object id, so concurrent
cross-merges cannot deadlock.

The scalar path needs only :mod:`math` and :mod:`threading`;
:meth:`QuantileSketch.observe_many` vectorizes bulk ingest with
:mod:`numpy`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..exceptions import TelemetryError

__all__ = ["QuantileSketch", "RELATIVE_ACCURACY"]

#: Every sketch's relative accuracy: 0.1% — far tighter than the ±1
#: rank percentile the test suite demands, at ~a few hundred buckets
#: for realistic latency ranges.
RELATIVE_ACCURACY = 0.001

_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)

#: Observations at or below this magnitude collapse into the zero
#: bucket (log-bucketing cannot represent 0).
_ZERO_THRESHOLD = 1e-12


class QuantileSketch:
    """A mergeable streaming quantile sketch whose quantiles are within
    :data:`RELATIVE_ACCURACY` of an observed value."""

    __slots__ = (
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        """Number of observations ingested."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observation, or ``inf`` when empty."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation, or ``-inf`` when empty."""
        return self._max

    def _key(self, value: float) -> int:
        return math.ceil(math.log(value) / _LOG_GAMMA)

    def observe(self, value: float) -> None:
        """Ingest one observation.

        Negative values are clamped to the zero bucket — the sketch
        tracks non-negative quantities (latencies, sizes); a negative
        duration is a clock artifact, not data.
        """
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= _ZERO_THRESHOLD:
                self._zero_count += 1
                return
            key = self._key(value)
            self._buckets[key] = self._buckets.get(key, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk-ingest observations.

        Vectorizes the log/bucket computation through numpy when the
        batch is large enough to pay for it; otherwise runs the scalar
        loop.  Either path produces identical buckets.
        """
        n = len(values)
        if n == 0:
            return
        if n < 64:
            for v in values:
                self.observe(v)
            return
        arr = np.asarray(values, dtype=float)
        with self._lock:
            self._count += n
            self._sum += float(arr.sum())
            lo = float(arr.min())
            hi = float(arr.max())
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi
            positive = arr[arr > _ZERO_THRESHOLD]
            self._zero_count += n - positive.size
            if positive.size:
                keys = np.ceil(
                    np.log(positive) / _LOG_GAMMA
                ).astype(np.int64)
                uniq, counts = np.unique(keys, return_counts=True)
                buckets = self._buckets
                for key, cnt in zip(uniq.tolist(), counts.tolist()):
                    buckets[key] = buckets.get(key, 0) + cnt

    def quantile(self, q: float) -> float:
        """The value at rank ``q`` in [0, 1]; ``nan`` when empty.

        Uses the nearest-rank convention ``rank = q * (count - 1)``,
        matching :func:`numpy.percentile` rank semantics up to the
        sketch's relative accuracy.
        """
        if not (0.0 <= q <= 1.0):
            raise TelemetryError(f"quantile must be in [0, 1], got {q!r}")
        # Snapshot under the lock, sort and walk outside it: a reader
        # preempted mid-sort must not hold up the writers.
        with self._lock:
            count, seen = self._count, self._zero_count
            lo, hi = self._min, self._max
            buckets = list(self._buckets.items())
        if count == 0:
            return math.nan
        rank = q * (count - 1)
        if rank < seen:
            return 0.0
        buckets.sort()
        for key, cnt in buckets:
            seen += cnt
            if rank < seen:
                # Midpoint of the bucket (gamma**(key-1), gamma**key],
                # clamped to the exactly-tracked observation range so
                # the extreme quantiles never stray outside the data.
                estimate = 2.0 * _GAMMA ** key / (_GAMMA + 1.0)
                return min(max(estimate, lo), hi)
        return hi

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Batch form of :meth:`quantile`."""
        return [self.quantile(q) for q in qs]

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one (exact)."""
        if not isinstance(other, QuantileSketch):
            raise TelemetryError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        if other is self:
            other = self.copy()
        # Both locks, in id order, so concurrent cross-merges between
        # the same pair of sketches cannot deadlock.
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            buckets = self._buckets
            for key, cnt in other._buckets.items():
                buckets[key] = buckets.get(key, 0) + cnt
            self._zero_count += other._zero_count
            self._count += other._count
            self._sum += other._sum
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max

    def copy(self) -> "QuantileSketch":
        """A consistent point-in-time copy of this sketch."""
        result = QuantileSketch()
        with self._lock:
            result._buckets = dict(self._buckets)
            result._zero_count = self._zero_count
            result._count = self._count
            result._sum = self._sum
            result._min = self._min
            result._max = self._max
        return result

    def merged(self, other: "QuantileSketch") -> "QuantileSketch":
        """A new sketch holding both inputs' observations."""
        result = QuantileSketch()
        result.merge(self)
        result.merge(other)
        return result

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self._count}, "
            f"p50={self.quantile(0.5):.6g}, "
            f"p99={self.quantile(0.99):.6g})"
        )
