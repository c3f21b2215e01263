"""Sharded distance serving: regional tenants + boundary-hub relays.

A city-scale road network should not pay one monolithic synopsis
rebuild per epoch when congestion updates are regional.
``DistanceService(..., shards=k)`` — or :class:`ShardedDistanceService`,
the same front under a sharded default tenant name — splits the
public topology into ``k`` balanced, connected *shards* (BFS region
growing from seed 0 — :func:`partition_graph`; the topology is public,
so the split is a function of it that the service computes itself),
runs one synopsis + ledger tenant per shard,
and stitches cross-shard queries back together through a noisy hub
structure built over the *boundary* vertices (the endpoints of cut
edges) with :func:`repro.apsp.hubs.build_hub_structure`:

* an **intra-shard** query is routed to the owning shard's synopsis —
  the unsharded serving path on a ``V/k``-vertex graph — then capped
  by the relay decomposition below through the shard's *own* boundary,
  so a border pair whose best corridor dips into a neighboring shard
  is not stuck with the induced-subgraph detour (the min is pure
  post-processing, zero extra budget);
* a **cross-shard** query ``(s, t)`` is answered as the min over
  boundary exits ``b_s`` of ``shard(s)`` and entries ``b_t`` of
  ``shard(t)`` of ``d_s(s, b_s) + relay(b_s, b_t) + d_t(b_t, t)``,
  where the first and last terms come from the shard synopses (free
  post-processing) and the middle from the released boundary-hub
  relay table.  A true cross-shard shortest path stays inside
  ``shard(s)`` until it first leaves through some boundary vertex and
  inside ``shard(t)`` after it last enters, so in the noiseless limit
  the decomposition is consistent (up to the hub-relay detour).

A :class:`ShardPlan` is its assignment, vertex -> shard, and nothing
more: the shard router derives the cut edges and the boundary from it
and the graph, once.  :func:`partition_graph` refuses a disconnected
graph with :class:`~repro.exceptions.DisconnectedGraphError` before
anything spends, and region growing keeps every shard connected, so a
connected graph split into two or more shards always cuts an edge and
the relay always has sites.  A directed graph is refused with
:class:`~repro.exceptions.GraphError` just as early, sharded or not:
answers are keyed per unordered pair.

Privacy accounting.  Every Laplace release in this library has privacy
loss proportional to the L1 perturbation of the edge weights it reads,
so releases over *disjoint* edge sets compose like parallel
composition: a neighboring weight function (total L1 change ``<= 1``
across all edges, Definition 2.1) splits its perturbation across the
shards, and the joint loss of the per-shard releases — each reading
only its shard's intra-shard edges — is at most ``max_i eps_i``.  The
relay table reads *all* edges (boundary-to-boundary distances traverse
the whole graph), so its budget adds.  One full build therefore costs
``eps_shard + eps_relay`` — the epoch budget — which the service
realizes by giving every shard tenant ``1 - RELAY_FRACTION`` of the
epoch budget and the relay tenant the remaining :data:`RELAY_FRACTION`
(a constant, one half), each spending under its own fail-closed
ledger tenant.  Regional refreshes *re-spend* within the epoch (the
other shards are still serving it), and the ledger caps every tenant
at the full per-tenant epoch budget — the standard multi-tenant
contract of :class:`~repro.serving.ledger.BudgetLedger` — so with the
default private ledger the worst-case per-epoch loss on any one
edge's weight once regional refreshes occur is ``(shard tenant cap) +
(relay tenant cap)``, i.e. 2x the epoch budget; size the epoch budget
or a stricter shared ledger accordingly.  The relay noise itself is
priced by the shared
:func:`~repro.dp.composition.composed_noise_scale` accounting over the
distinct boundary pairs the hub structure releases.

With one shard there is no partition, no cut, no relay and no split:
the service is the unsharded one, its lone tenant serving the
service's graph on the full epoch budget, so
``ShardedDistanceService(shards=1)`` answers match
``DistanceService`` bit for bit under the same seed.

The service partitions, and the router indexes, the service's own
copy of the graph it was built with, whose vertex and edge order is
fixed for the service's lifetime: the tenants' edge positions, the
edge classes and the relay's sites all index that order.  A
``refresh(graph)`` reads the new weights into it (the same vertex and
edge sets in any order, anything else refused before any spend), and
a ``refresh_shard`` weight vector is in it, so every relay sweeps the
plan-order graph and nothing a caller does to a graph it handed over
reaches a build.

Per-shard refresh (:meth:`~repro.serving.service.DistanceService.refresh_shard`)
exploits the engine's cheap re-weighting: a regional congestion update
re-gathers the shard subgraph's weight array over the frozen CSR
structure, rebuilds only that shard's synopsis plus the relay table,
and leaves the other ``k - 1`` tenants serving untouched.  Every
refresh reuses the compiled topology: each tenant subgraph and the
full graph keep their CSR structures across epochs, with the
topology memo of :mod:`repro.engine.csr` (the connectivity, and the
ball pairs, partner trees and site reachability of the tenant and
relay hub builds), so only the sweeps that read weights and the noise
are redone.
"""

from __future__ import annotations

from typing import Any

from ..dp.params import PrivacyParams
from ..exceptions import GraphError
from ..graphs.graph import WeightedGraph
from ..rng import Rng
# _ShardRouter is imported for its qualified name: perfbench's traced
# runs wrap repro.serving.sharding._ShardRouter.distance.
from .routing import (  # noqa: F401
    RELAY_FRACTION,
    ShardPlan,
    _ShardRouter,
    partition_graph,
)
from .service import DistanceService

__all__ = [
    "ShardPlan",
    "ShardedDistanceService",
    "partition_graph",
    "RELAY_FRACTION",
]


class ShardedDistanceService(DistanceService):
    """:class:`~repro.serving.service.DistanceService` under its
    sharded name: the ledger tenant defaults to
    ``sharded-distance-service`` (shards spend under
    ``{tenant}/shard-{i}``, the relay under ``{tenant}/relay``), and
    ``shards=`` is required.  Every other keyword is the front's.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epoch_budget: PrivacyParams | float,
        rng: Rng,
        *,
        shards: int | None = None,
        tenant: str = "sharded-distance-service",
        **options: Any,
    ) -> None:
        if shards is None:
            raise GraphError("ShardedDistanceService needs shards=")
        super().__init__(
            graph,
            epoch_budget,
            rng,
            shards=shards,
            tenant=tenant,
            **options,
        )
