"""Batch query planning: dedupe, serve, measure.

Heavy traffic repeats itself — rush-hour riders overwhelmingly ask
about the same popular origin/destination pairs.  The planner exploits
that twice:

* within a batch, duplicate (unordered) pairs are answered once and
  fanned back out to every requester;
* across batches, a shared answer cache short-circuits pairs any
  earlier batch resolved.

Both are pure post-processing of an already-released synopsis, so a
batch of any size costs zero additional privacy budget.  For workloads
served *without* a standing synopsis, :func:`fresh_batch` releases the
batch itself as a :class:`~repro.serving.synopsis.SinglePairSynopsis`
— one vectorized ``Lap(Q/eps)`` draw via
:meth:`~repro.rng.Rng.laplace_vector` rather than ``Q`` scalar draws.

Every batch returns a :class:`BatchReport` with wall-clock latency and
throughput, the raw material for the serving benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, MutableMapping, Sequence, Tuple

from ..dp.params import PrivacyParams
from ..exceptions import GraphError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng
from ..telemetry import Telemetry, get_telemetry
from .ledger import BudgetLedger
from .synopsis import (
    DistanceSynopsis,
    SinglePairSynopsis,
    _exact_pairs,
    _release_pairs,
    _require_undirected,
    canonical_pair,
)

__all__ = ["BatchPlanner", "BatchReport", "BoundedCache", "fresh_batch"]

Pair = Tuple[Vertex, Vertex]


class BoundedCache(MutableMapping):
    """An LRU-bounded answer cache for the serving services.

    Drop-in for the unbounded dict cache (the
    ``ServingConfig.cache_size`` knob): holds at most ``maxsize``
    canonical pairs, evicting the least recently *used* entry on
    overflow.  Purely a memory bound — an evicted answer is recomputed
    bit-identically from the immutable synopsis on the next miss, it
    just stops being free.
    """

    __slots__ = ("_maxsize", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise GraphError(
                f"cache size must be at least 1, got {maxsize}"
            )
        self._maxsize = int(maxsize)
        self._data: Dict[Pair, float] = {}

    @property
    def maxsize(self) -> int:
        """The cache's entry bound."""
        return self._maxsize

    def __getitem__(self, key: Pair) -> float:
        # Move-to-end on hit: dicts iterate in insertion order, so
        # re-inserting makes the first key the least recently used.
        value = self._data.pop(key)
        self._data[key] = value
        return value

    def __setitem__(self, key: Pair, value: float) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self._maxsize:
            self._data.pop(next(iter(self._data)))

    def __delitem__(self, key: Pair) -> None:
        del self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data


@dataclass
class BatchReport:
    """The outcome of one served batch."""

    #: Answers aligned one-to-one with the input pair sequence.
    answers: List[float] = field(default_factory=list)
    #: How many queries the batch contained.
    num_queries: int = 0
    #: Distinct unordered pairs after deduplication.
    num_unique: int = 0
    #: Queries answered straight from the cross-batch cache.
    cache_hits: int = 0
    #: Wall-clock seconds spent serving the batch.
    elapsed_seconds: float = 0.0
    #: Wall-clock seconds spent building a release for the batch
    #: (:func:`fresh_batch` only; 0 when served from a standing
    #: synopsis).  Kept separate so :attr:`queries_per_second` always
    #: measures pure serving throughput.
    build_seconds: float = 0.0

    @property
    def queries_per_second(self) -> float:
        """Throughput; 0 for an empty or instantaneous batch."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.elapsed_seconds


class BatchPlanner:
    """Plans and serves batches of distance queries from a synopsis.

    Parameters
    ----------
    synopsis:
        Any :class:`~repro.serving.synopsis.DistanceSynopsis`.
    cache:
        A mutable mapping shared across batches; pass ``None`` for a
        private per-planner cache.  Keys are canonical unordered pairs.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` bundle per-query
        latencies and ``batch.serve`` spans are recorded into;
        ``None`` captures the process's current bundle.  Timing never
        touches the synopsis or any rng, so answers are bit-identical
        regardless.
    labels:
        Extra labels for the ``serving.query.latency`` histogram
        (the services pass ``service``/``mechanism``).
    """

    def __init__(
        self,
        synopsis: DistanceSynopsis,
        cache: MutableMapping[Pair, float] | None = None,
        telemetry: Telemetry | None = None,
        labels: Dict[str, str] | None = None,
    ) -> None:
        self._synopsis = synopsis
        self._cache: MutableMapping[Pair, float] = (
            cache if cache is not None else {}
        )
        self._telemetry = (
            telemetry if telemetry is not None else get_telemetry()
        )
        self._labels = dict(labels) if labels else {}
        self._latency = self._telemetry.registry.histogram(
            "serving.query.latency", **self._labels
        )

    @property
    def synopsis(self) -> DistanceSynopsis:
        """The synopsis answers are drawn from."""
        return self._synopsis

    @property
    def cache(self) -> MutableMapping[Pair, float]:
        """The cross-batch answer cache."""
        return self._cache

    def run(self, pairs: Sequence[Pair]) -> BatchReport:
        """Serve one batch; answers align with the input order."""
        start = time.perf_counter()
        report = BatchReport(num_queries=len(pairs))
        resolved: Dict[Pair, float] = {}
        # Per-query durations are buffered and bulk-ingested after the
        # loop, so the hot path pays two clock reads and an append per
        # query — the sketch math is vectorized once per batch.
        durations: List[float] = []
        with self._telemetry.span(
            "batch.serve", queries=len(pairs), **self._labels
        ) as span:
            for s, t in pairs:
                q_start = time.perf_counter()
                key = canonical_pair(s, t)
                if key in resolved:
                    value = resolved[key]
                elif key in self._cache:
                    value = self._cache[key]
                    resolved[key] = value
                    report.cache_hits += 1
                else:
                    value = self._synopsis.distance(s, t)
                    resolved[key] = value
                    self._cache[key] = value
                report.answers.append(value)
                durations.append(time.perf_counter() - q_start)
            # num_unique is the batch's true distinct-pair count (its
            # documented meaning); cache hits stay a separate counter.
            report.num_unique = len(resolved)
            span.set_attribute("unique", report.num_unique)
            span.set_attribute("cache_hits", report.cache_hits)
            self._telemetry.emit(
                "batch.serve",
                queries=report.num_queries,
                unique=report.num_unique,
                cache_hits=report.cache_hits,
                labels=self._labels,
            )
        report.elapsed_seconds = time.perf_counter() - start
        self._latency.observe_many(durations)
        flight = self._telemetry.flight
        if flight.enabled:
            # Each query in the batch is offered individually so the
            # recorder's adaptive threshold sees the same per-query
            # latency distribution the histogram does; the finished
            # batch span is the captured exemplar's context.
            mechanism = self._labels.get("mechanism")
            for (s, t), seconds in zip(pairs, durations):
                flight.consider(
                    seconds,
                    pair=(s, t),
                    route="batch",
                    mechanism=mechanism,
                    span=span,
                )
        return report


def fresh_batch(
    graph: WeightedGraph,
    pairs: Sequence[Pair],
    eps: float,
    rng: Rng,
    ledger: BudgetLedger | None = None,
) -> Tuple[SinglePairSynopsis, BatchReport]:
    """Release and serve a batch with no standing synopsis.

    Deduplicates the batch, releases the distinct pairs as one
    vectorized ``Lap(Q/eps)`` draw (eps-DP total), and serves every
    query from the resulting synopsis.  Returns the synopsis too, so
    follow-up batches over the same pairs are free.

    Spend first, release second: the whole-batch ``eps`` is recorded
    against ``ledger`` *before* any noise is drawn (a fresh
    single-epoch ledger when none is passed), so even a one-off
    batch release is budget-accounted — the fail-closed
    :class:`~repro.serving.ledger.BudgetLedger` refuses the spend, and
    therefore the draw, when a shared ledger cannot cover it.  A
    directed graph, a pair naming a vertex outside the graph and a
    pair with no path are all refused before the spend.
    """
    _require_undirected(graph, "a fresh batch")
    params = PrivacyParams(eps)
    telemetry = get_telemetry()
    if ledger is None:
        ledger = BudgetLedger(params)
    start = time.perf_counter()
    with telemetry.span(
        "fresh_batch.release", queries=len(pairs), eps=eps
    ):
        exact = _exact_pairs(graph, pairs)
        ledger.spend(
            params, label=f"fresh batch ({len(pairs)} queries)"
        )
        synopsis = _release_pairs(params, graph, exact, rng)
    build_seconds = time.perf_counter() - start
    telemetry.registry.histogram(
        "build.latency", phase="fresh-batch", mechanism="single-pair"
    ).observe(build_seconds)
    report = BatchPlanner(synopsis, telemetry=telemetry).run(pairs)
    # The one-time release build is reported separately so
    # ``elapsed_seconds`` (and queries_per_second) stay pure serving
    # time.
    report.build_seconds = build_seconds
    return synopsis, report
