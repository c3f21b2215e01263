"""The private distance query-serving engine.

The paper's mechanisms release a synopsis once; differential privacy's
post-processing property then makes every query answered from it free.
This package turns that observation into a serving architecture with
one front:

* :mod:`repro.serving.service` — :class:`DistanceService`, the front:
  it owns the answer cache, the counters, the ledger and epoch, and
  telemetry over ``k >= 1`` regional tenants (``k = 1`` is the
  unsharded service), picks each tenant's mechanism from the
  :mod:`repro.mechanisms` catalog, and serves point/batch queries;
* :mod:`repro.serving.routing` / :mod:`repro.serving.sharding` — the
  topology-only partitioner, the tenants, the shard router and its
  noisy boundary-hub relay, the sharded accounting, and
  :class:`ShardedDistanceService` (the front's sharded name);
* :mod:`repro.serving.synopsis` — immutable, serializable synopsis
  objects wrapping each release family, one document reader that
  dispatches on their kind, and per-pair noise-scale introspection;
* :mod:`repro.serving.ledger` — a multi-tenant, epoch-rotating budget
  ledger that fails closed;
* :mod:`repro.serving.estimates` — :class:`Estimate`, the rich query
  result (value + noise scale + Laplace-CDF confidence interval);
* :mod:`repro.serving.config` — :class:`ServingConfig`, the
  declarative JSON-round-trippable deployment document, and
  :func:`serve`, the one factory (``shards=`` picks the shape);
* :mod:`repro.serving.batching` — batch planning: dedupe, vectorized
  noise, latency reporting, the bounded answer cache;
* :mod:`repro.serving.simulate` — rush-hour traffic replay measuring
  throughput and empirical error through the one serving interface.
"""

from .batching import BatchPlanner, BatchReport, BoundedCache, fresh_batch
from .ledger import BudgetLedger, LedgerEntry
from .estimates import Estimate
from .service import DistanceService, ServiceStats
from .sharding import (
    ShardPlan,
    ShardedDistanceService,
    partition_graph,
)
from .config import ServingConfig, serve
from .simulate import EpochResult, SimulationReport, replay_rush_hour
from .synopsis import (
    AllPairsSynopsis,
    BoundedWeightSynopsis,
    DistanceSynopsis,
    HubBoundedSynopsis,
    HubSetSynopsis,
    SinglePairSynopsis,
    TreeSynopsis,
    build_single_pair_synopsis,
    synopsis_from_json,
)

__all__ = [
    "DistanceService",
    "ServingConfig",
    "serve",
    "Estimate",
    "ServiceStats",
    "ShardPlan",
    "ShardedDistanceService",
    "partition_graph",
    "BudgetLedger",
    "LedgerEntry",
    "BatchPlanner",
    "BatchReport",
    "BoundedCache",
    "fresh_batch",
    "DistanceSynopsis",
    "SinglePairSynopsis",
    "AllPairsSynopsis",
    "TreeSynopsis",
    "BoundedWeightSynopsis",
    "HubSetSynopsis",
    "HubBoundedSynopsis",
    "build_single_pair_synopsis",
    "synopsis_from_json",
    "EpochResult",
    "SimulationReport",
    "replay_rush_hour",
]
