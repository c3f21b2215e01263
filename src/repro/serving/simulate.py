"""Traffic replay: drive the serving engine with rush-hour workloads.

This module closes the loop on the paper's motivating example.  It
builds a synthetic city (:func:`repro.workloads.traffic.grid_road_network`),
overlays a moving rush-hour hot-spot per epoch
(:func:`repro.workloads.traffic.rush_hour_scenario`), stands up the
server a :class:`~repro.serving.config.ServingConfig` describes
through the one :func:`~repro.serving.config.serve` path (sharded or
not — the replay never branches on it), and replays batches of rider
queries against it — measuring what a provider actually cares about:
throughput (queries/second), empirical error versus the true
congested distances, and the audited budget spend per epoch.

The replay is fully deterministic given the :class:`~repro.rng.Rng`,
so simulation results are regenerable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..engine.csr import CSRGraph
from ..engine.kernels import pair_distances
from ..exceptions import GraphError
from ..graphs.graph import WeightedGraph
from ..rng import Rng
from ..telemetry import Telemetry, use_telemetry
from ..workloads.queries import uniform_pairs
from ..workloads.traffic import (
    RoadNetwork,
    congestion_weights,
    grid_road_network,
    rush_hour_scenario,
)
from .config import ServingConfig, serve
from .service import DistanceService

__all__ = ["SimulationReport", "EpochResult", "replay_rush_hour"]


@dataclass
class EpochResult:
    """Measurements for one simulated epoch."""

    epoch: int
    num_queries: int
    unique_pairs: int
    cache_hits: int
    elapsed_seconds: float
    mean_abs_error: float
    max_abs_error: float

    @property
    def queries_per_second(self) -> float:
        """Serving throughput within the epoch's batch."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.elapsed_seconds


@dataclass
class SimulationReport:
    """The outcome of a full traffic replay."""

    mechanism: str
    eps: float
    delta: float
    num_epochs: int
    epochs: List[EpochResult] = field(default_factory=list)
    ledger_spends: int = 0
    #: Final snapshot of the server's shared counters
    #: (:meth:`~repro.serving.service.ServiceStats.as_dict`) — the
    #: same names whether the replay ran sharded or not.
    server_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-query serving latency quantiles in seconds (``p50`` /
    #: ``p95`` / ``p99`` plus the observation ``count``), merged over
    #: every ``serving.query.latency`` label set of the replay's
    #: telemetry bundle.  Empty when the replay ran with telemetry
    #: disabled.
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        """Queries served across all epochs."""
        return sum(e.num_queries for e in self.epochs)

    @property
    def elapsed_seconds(self) -> float:
        """Total serving time across all epochs."""
        return sum(e.elapsed_seconds for e in self.epochs)

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput over the whole replay."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    @property
    def mean_abs_error(self) -> float:
        """Query-weighted mean absolute error across epochs."""
        total = self.total_queries
        if total == 0:
            return 0.0
        return (
            sum(e.mean_abs_error * e.num_queries for e in self.epochs)
            / total
        )

    @property
    def max_abs_error(self) -> float:
        """Worst absolute error seen in any epoch."""
        if not self.epochs:
            return 0.0
        return max(e.max_abs_error for e in self.epochs)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe summary (what the CLI prints)."""
        return {
            "mechanism": self.mechanism,
            "eps": self.eps,
            "delta": self.delta,
            "epochs": self.num_epochs,
            "total_queries": self.total_queries,
            "queries_per_second": self.queries_per_second,
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "ledger_spends": self.ledger_spends,
            "server_stats": dict(self.server_stats),
            "latency_seconds": dict(self.latency),
        }


def replay_rush_hour(
    rng: Rng,
    config: ServingConfig = ServingConfig(),
    rows: int = 20,
    cols: int = 20,
    epochs: int = 1,
    queries_per_epoch: int = 1000,
    slowdown: float = 3.0,
    block_minutes: float = 2.0,
    telemetry: Telemetry | None = None,
) -> SimulationReport:
    """Replay rush-hour traffic through the serving engine.

    Each epoch places a fresh hot-spot at a random downtown location,
    refreshes the server (one budget spend per tenant), and serves a
    batch of ``queries_per_epoch`` uniform rider queries, comparing
    the served answers against the true congested distances.

    The server is stood up from ``config`` through the one
    :func:`~repro.serving.config.serve` path, journals included.
    With ``config.weight_bound`` set, epoch weights are additionally
    capped (:func:`~repro.workloads.traffic.congestion_weights`
    semantics) so the Section 4.2 covering mechanism can auto-select.
    With 2+ shards each epoch is a full sharded rebuild (regional
    tenants + boundary-hub relay); the replay itself never branches
    on sharding — there is one
    :class:`~repro.serving.service.DistanceService` front.

    ``telemetry`` is the bundle the replayed server records into; the
    default is a *fresh private* bundle per replay, so the report's
    latency quantiles measure this replay alone rather than whatever
    else the process-global registry has seen.  Pass a bundle
    explicitly to aggregate across replays or to export the full
    snapshot afterwards, or :data:`~repro.telemetry.NULL_TELEMETRY`
    to record nothing (the report's latency is then empty).
    """
    if telemetry is None:
        telemetry = Telemetry()
    if epochs < 1:
        raise GraphError(f"need at least 1 epoch, got {epochs}")
    if queries_per_epoch < 1:
        raise GraphError(
            f"need at least 1 query per epoch, got {queries_per_epoch}"
        )
    network = grid_road_network(
        rows, cols, rng, block_minutes=block_minutes
    )

    def epoch_weights() -> WeightedGraph:
        center = (
            rng.uniform(0.0, float(cols - 1)),
            rng.uniform(0.0, float(rows - 1)),
        )
        hot_radius = max(min(rows, cols) / 4.0, 1.0)
        congested = rush_hour_scenario(
            network, rng, center=center, hot_radius=hot_radius,
            slowdown=slowdown,
        )
        if config.weight_bound is not None:
            # Cap the congested times at the public bound M so the
            # Section 4.2 mechanism's precondition holds.
            return congestion_weights(
                RoadNetwork(graph=congested, positions=network.positions),
                rng,
                congestion_level=0.0,
                cap=config.weight_bound,
            )
        return congested

    service: DistanceService | None = None
    results: List[EpochResult] = []
    for epoch in range(epochs):
        graph = epoch_weights()
        if service is None:
            service = serve(graph, config, rng, telemetry=telemetry)
        else:
            service.refresh(graph)
        pairs = uniform_pairs(graph, queries_per_epoch, rng)
        batch = service.query_batch(pairs)
        # The ground-truth sweep dominates the replay's wall clock on
        # larger grids; spanning it keeps the phase profile's
        # attribution informative (it is measurement, not serving).
        with use_telemetry(telemetry), telemetry.span(
            "replay.ground_truth", epoch=epoch, pairs=len(pairs)
        ):
            csr = CSRGraph.from_graph(graph)
            exact = pair_distances(
                csr,
                csr.indices_of([s for s, _ in pairs]),
                csr.indices_of([t for _, t in pairs]),
            ).tolist()
        errors = [
            abs(answer - truth)
            for answer, truth in zip(batch.answers, exact)
        ]
        results.append(
            EpochResult(
                epoch=epoch,
                num_queries=batch.num_queries,
                unique_pairs=batch.num_unique,
                cache_hits=batch.cache_hits,
                elapsed_seconds=batch.elapsed_seconds,
                mean_abs_error=sum(errors) / len(errors),
                max_abs_error=max(errors),
            )
        )
    assert service is not None
    return SimulationReport(
        mechanism=service.mechanism,
        eps=config.eps,
        delta=config.delta,
        num_epochs=epochs,
        epochs=results,
        ledger_spends=len(service.ledger.records()),
        server_stats=service.stats.as_dict(),
        latency=_latency_summary(telemetry),
    )


def _latency_summary(telemetry: Telemetry) -> Dict[str, float]:
    """p50/p95/p99 (seconds) + count of every per-query latency the
    bundle saw, merged across label sets; empty when uninstrumented."""
    sketch = telemetry.registry.merged_histogram("serving.query.latency")
    if sketch is None or sketch.count == 0:
        return {}
    return {
        "p50": sketch.quantile(0.50),
        "p95": sketch.quantile(0.95),
        "p99": sketch.quantile(0.99),
        "count": sketch.count,
    }
