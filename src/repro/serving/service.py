"""The query-serving front: pay for privacy once, answer forever.

:class:`DistanceService` is the paper's Section 1.1 navigation
provider as a component: it holds the public topology plus the current
epoch's private weights, builds one release per epoch under a
ledgered budget, and then serves unlimited point and batch distance
queries from it — pure post-processing, zero further privacy cost.

The front owns the answer cache, :class:`ServiceStats`, the latency
histograms, the ledger and epoch, and telemetry over ``k >= 1``
regional tenants.  The unsharded service is the ``k = 1`` case: one
tenant on the service's graph and full budget, whose synopsis answers
cache misses.  With ``shards=k`` a miss goes through the shard router
and its boundary-hub relay (:mod:`repro.serving.sharding`).

Each tenant's mechanism is the catalog's predicted-noise-scale
contest (:func:`repro.mechanisms.auto_select_mechanism`), which
mirrors the paper's structure:

* tree topology → Algorithm 1 + Theorem 4.2 (error ``O(log^1.5 V)``),
* declared weight bound ``M`` → Algorithm 2's covering release
  (error ``O~(sqrt(V M))`` approx / ``O((VM)^{2/3})`` pure), upgraded
  to the hub-over-covering release at road-network scale,
* otherwise → a contest between the Section 4 intro all-pairs baseline
  (basic composition for pure budgets, advanced when ``delta > 0``)
  and the improved hub-set release of :mod:`repro.apsp`, which wins
  once ``V`` is large enough for its ``~V^{3/2}``-entry accounting to
  beat the baseline's ``V^2``.

Beyond bare ``query()`` floats, the :meth:`DistanceService.estimate`
path returns :class:`~repro.serving.estimates.Estimate` objects
carrying the answer's effective noise scale and a Laplace-CDF
confidence interval; ``query()`` returns exactly
``estimate().value``, so the rich path costs nothing in
reproducibility.

Epoch rotation (:meth:`DistanceService.refresh`) swaps in a fresh
weight function — a new private database — rotates the ledger, clears
the answer cache, and rebuilds every release;
:meth:`DistanceService.refresh_shard` rebuilds one tenant (plus the
relay) within the epoch.  The topology is public and fixed across
epochs (Definition 2.1), so the service keeps its own copy of the
graph it was built with, in that graph's vertex and edge order, for
its lifetime.  It compiles that graph before copying it, so the copy
and any later service on the same graph object share one compiled
topology.  A refresh graph is read into the service's order, and the
service re-weights its own graph
(:meth:`~repro.graphs.graph.WeightedGraph.with_weights`), which keeps
the compiled CSR structure and its topology memo
(:mod:`repro.engine.csr`), so only the work that reads weights is
redone.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import Dict, List, Mapping, MutableMapping, Sequence, Tuple

import numpy as np

from ..apsp.hubs import (
    HubStructure,
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..exceptions import GraphError, PrivacyError
from ..graphs.graph import Edge, Vertex, WeightedGraph
from ..mechanisms import (
    MechanismParams,
    auto_select_mechanism,
    get_mechanism,
)
from ..rng import Rng
from ..telemetry import Telemetry, get_telemetry, use_telemetry
from ..telemetry.registry import Counter
from ..telemetry.tracer import _NULL_SPAN_CONTEXT
from .batching import BatchPlanner, BatchReport, BoundedCache
from .estimates import Estimate
from .ledger import BudgetLedger
from .routing import (
    RELAY_FRACTION,
    ShardPlan,
    _ShardRouter,
    _Tenant,
    partition_graph,
)
from .synopsis import DistanceSynopsis, _require_undirected, canonical_pair

__all__ = ["DistanceService", "ServiceStats"]


class ServiceStats:
    """Running counters for one server.

    Kept by the :class:`DistanceService` front, once per server
    however many shards it runs (tenants keep none), so consumers
    never special-case sharded services.

    The counters are single-sourced in the service's telemetry
    registry (``serving.stats.*`` with ``tenant``/``instance``
    labels); this class is the compatibility *view* over them — the
    attribute names, :attr:`num_queries`, and :meth:`as_dict` are
    byte-for-byte what the pre-telemetry dataclass exposed.  With
    telemetry disabled the counters are private unregistered
    instruments, so counting (and ``as_dict``) works identically
    either way.
    """

    _FIELDS = (
        "point_queries",
        "batch_queries",
        "batches",
        "cache_hits",
        "epochs_built",
        "shard_refreshes",
    )

    __slots__ = ("_counters", "_cache_misses")

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        tenant: str = "service",
    ) -> None:
        registry = telemetry.registry if telemetry is not None else None
        if registry is None or not registry.enabled:
            self._counters = {
                name: Counter(f"serving.stats.{name}")
                for name in self._FIELDS
            }
            self._cache_misses = Counter("serving.stats.cache_misses")
        else:
            labels = registry.instance_labels(tenant=tenant)
            self._counters = {
                name: registry.counter(
                    f"serving.stats.{name}", **labels
                )
                for name in self._FIELDS
            }
            self._cache_misses = registry.counter(
                "serving.stats.cache_misses", **labels
            )

    # -- the compatibility read surface --------------------------------

    @property
    def point_queries(self) -> int:
        """Point queries served."""
        return self._counters["point_queries"].value

    @property
    def batch_queries(self) -> int:
        """Queries served through batches."""
        return self._counters["batch_queries"].value

    @property
    def batches(self) -> int:
        """Batches served."""
        return self._counters["batches"].value

    @property
    def cache_hits(self) -> int:
        """Queries answered from the answer cache."""
        return self._counters["cache_hits"].value

    @property
    def epochs_built(self) -> int:
        """Full synopsis builds (construction + refreshes)."""
        return self._counters["epochs_built"].value

    @property
    def shard_refreshes(self) -> int:
        """Regional rebuilds (:meth:`DistanceService.refresh_shard`;
        full epoch rebuilds count under :attr:`epochs_built`)."""
        return self._counters["shard_refreshes"].value

    @property
    def num_queries(self) -> int:
        """Total queries served (point + batch) — the headline
        counter."""
        return self.point_queries + self.batch_queries

    def as_dict(self) -> Dict[str, int]:
        """A JSON-safe snapshot with the shared counter names."""
        return {
            "num_queries": self.num_queries,
            "point_queries": self.point_queries,
            "batch_queries": self.batch_queries,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "epochs_built": self.epochs_built,
            "shard_refreshes": self.shard_refreshes,
        }

    # -- the recording surface (services only) -------------------------

    def record_point_query(self, cache_hit: bool) -> None:
        """One point query; hit/miss routed to the right counters.

        Misses land in a registry-only ``serving.stats.cache_misses``
        counter — not part of :meth:`as_dict`, which predates it.
        """
        self._counters["point_queries"].inc()
        if cache_hit:
            self._counters["cache_hits"].inc()
        else:
            self._cache_misses.inc()

    def record_batch(self, report: "BatchReport") -> None:
        """One served batch's counter deltas."""
        self._counters["batches"].inc()
        self._counters["batch_queries"].inc(report.num_queries)
        self._counters["cache_hits"].inc(report.cache_hits)
        # Distinct pairs that had to hit the synopsis (in-batch
        # duplicates are neither hits nor misses).
        self._cache_misses.inc(report.num_unique - report.cache_hits)

    def record_epoch_built(self) -> None:
        """One full synopsis build."""
        self._counters["epochs_built"].inc()

    def record_shard_refresh(self) -> None:
        """One regional rebuild."""
        self._counters["shard_refreshes"].inc()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v}" for k, v in self.as_dict().items()
        )
        return f"ServiceStats({inner})"


def _check_servable(graph: WeightedGraph) -> None:
    """Refuse, before the ledger rotates or anything spends, a graph
    the service cannot answer for: a directed one (answers are cached
    and released per unordered pair) or one with a weight outside
    Definition 2.1's finite non-negative range."""
    _require_undirected(graph, "the distance service")
    graph.check_nonnegative()


def _check_deployment(
    weight_bound: object, shards: object, cache_size: object
) -> None:
    """Refuse a weight bound, a shard count or a cache bound that no
    deployment means, before anything is spent:
    :class:`DistanceService` and
    :class:`~repro.serving.config.ServingConfig` both check through
    here.  A declared ``weight_bound`` must be a positive finite real
    number, not a bool (:class:`~repro.exceptions.PrivacyError`: the
    bound calibrates the covering release's noise); ``shards`` and
    ``cache_size`` must each be an integer of at least 1, numpy's
    included, and not a bool (:class:`~repro.exceptions.GraphError`).
    ``None`` declares none of them.
    """
    if weight_bound is not None and not (
        isinstance(weight_bound, numbers.Real)
        and not isinstance(weight_bound, bool)
        and math.isfinite(weight_bound)
        and weight_bound > 0
    ):
        raise PrivacyError(
            "weight bound M must be a positive finite number, got "
            f"{weight_bound!r}"
        )
    for name, unit, count in (
        ("shards", "shard", shards),
        ("cache_size", "cache entry", cache_size),
    ):
        if count is None:
            continue
        if isinstance(count, bool) or not isinstance(
            count, numbers.Integral
        ):
            raise GraphError(f"{name} must be an integer, got {count!r}")
        if count < 1:
            raise GraphError(f"need at least 1 {unit}, got {count}")


def _refresh_weights(own: WeightedGraph, graph: WeightedGraph) -> np.ndarray:
    """``graph``'s weights as one float64 vector in ``own``'s edge
    order: as they stand when ``graph`` has ``own``'s vertex and edge
    lists, gathered edge by edge when it has the same vertex and edge
    sets in another order (each edge in either orientation when
    undirected).  Any other graph raises
    :class:`~repro.exceptions.GraphError`."""
    edges = own.edge_list()
    if graph.edge_list() == edges and graph.vertex_list() == own.vertex_list():
        return graph.weight_vector()
    if not (
        graph.num_vertices == own.num_vertices
        and graph.num_edges == len(edges)
        and all(map(graph.has_vertex, own.vertices()))
        and all(graph.has_edge(u, v) for u, v in edges)
    ):
        raise GraphError(
            "refresh graph's vertex or edge set differs from the service's"
        )
    return graph.weight_vector(edges)


class DistanceService:
    """A private distance query-serving engine over ``k >= 1``
    regional tenants (``k = 1``, the default, is unsharded).

    Parameters
    ----------
    graph:
        Public topology + the current epoch's private weights
        (connected when sharded).  The service compiles ``graph`` once
        (:meth:`~repro.engine.csr.CSRGraph.from_graph`, kept on the
        graph, so a later service on it reuses the compiled topology
        and its memo), keeps its own copy and never reads ``graph``
        again, so later changes to it reach no release; the copy's
        vertex and edge order is the service's order for its lifetime.
        A directed graph raises
        :class:`~repro.exceptions.GraphError` and a negative or
        non-finite weight :class:`~repro.exceptions.WeightError`
        before anything is spent, here and in :meth:`refresh` (and
        :meth:`refresh_shard`, for weights).
    epoch_budget:
        The ``(eps, delta)`` guarantee promised per epoch (a bare
        real number, a bool excepted, is taken as pure eps; anything
        else raises :class:`~repro.exceptions.PrivacyError` before
        anything is spent).  Unsharded, the whole budget is
        spent on one synopsis per epoch.  With two or more shards it
        splits ``1 - RELAY_FRACTION`` to every shard tenant (parallel
        composition over disjoint intra-shard edge sets) and
        :data:`~repro.serving.routing.RELAY_FRACTION` to the
        boundary-hub relay.
    rng:
        Noise source for the releases, consumed tenant 0..k-1 then
        relay — a fixed, reproducible order.
    weight_bound:
        Public bound ``M`` on edge weights, if the provider has one
        (e.g. capped travel times); enables the Section 4.2 mechanism
        on non-tree graphs.  A bool, NaN, infinite or non-positive
        bound raises :class:`~repro.exceptions.PrivacyError` before
        anything is spent.
    mechanism:
        Force a catalog mechanism by name (see
        :func:`repro.mechanisms.available_mechanisms`) instead of
        auto-selecting, for every tenant.
    ledger:
        Share a :class:`~repro.serving.ledger.BudgetLedger` with other
        products; defaults to a private ledger with ``epoch_budget``
        per tenant per epoch.  Every release is only built after the
        ledger accepts its spend, so an over-budget service fails
        closed at construction.
    tenant:
        The ledger tenant name this service spends under.  With two
        or more shards, shard ``i`` spends under ``{tenant}/shard-{i}``
        and the relay under ``{tenant}/relay``, each failing closed
        independently.
    cache_size:
        Bound the cross-batch answer cache to this many pairs (LRU
        eviction); ``None`` (the default) keeps every answered pair.
        A bool, a non-integer or a bound below 1 raises
        :class:`~repro.exceptions.GraphError` before anything is
        spent; numpy integers are integers.
        Purely a memory knob: evicted answers are recomputed
        identically from the immutable releases.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` bundle the service
        records into (query/batch latency histograms, the
        ``serving.stats.*`` counters, build spans, budget gauges).
        ``None`` (the default) captures the process's current bundle
        (:func:`~repro.telemetry.get_telemetry`); pass
        :data:`~repro.telemetry.NULL_TELEMETRY` to disable.
        Instrumentation never touches the rng — answers are
        bit-identical whatever bundle is in force.
    shards:
        How many regional tenants to partition into with
        :func:`~repro.serving.routing.partition_graph` at seed 0 (1,
        the default, partitions nothing).  The partition is a public
        function of the topology: it refuses a disconnected graph
        with :class:`~repro.exceptions.DisconnectedGraphError`, and
        keeps every shard connected.  A bool or a non-integer raises
        :class:`~repro.exceptions.GraphError` before anything is
        spent; numpy integers are integers.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epoch_budget: PrivacyParams | float,
        rng: Rng,
        weight_bound: float | None = None,
        mechanism: str | None = None,
        ledger: BudgetLedger | None = None,
        tenant: str = "distance-service",
        cache_size: int | None = None,
        telemetry: Telemetry | None = None,
        shards: int = 1,
    ) -> None:
        if not isinstance(epoch_budget, PrivacyParams):
            if isinstance(epoch_budget, bool) or not isinstance(
                epoch_budget, numbers.Real
            ):
                raise PrivacyError(
                    "epoch_budget must be PrivacyParams or a real eps, "
                    f"got {epoch_budget!r}"
                )
            epoch_budget = PrivacyParams(float(epoch_budget))
        _check_deployment(weight_bound, shards, cache_size)
        if mechanism is not None:
            # Raises MechanismError (a PrivacyError) on unknown names.
            get_mechanism(mechanism)
        _check_servable(graph)
        # Before the copy, so later services on ``graph`` share it.
        CSRGraph.from_graph(graph)
        graph = graph.copy()
        self._plan = (
            None if shards in (None, 1) else partition_graph(graph, shards)
        )
        self._budget = epoch_budget
        self._rng = rng
        self._weight_bound = weight_bound
        self._forced_mechanism = mechanism
        self._owns_ledger = ledger is None
        self._ledger = ledger if ledger is not None else BudgetLedger(
            epoch_budget
        )
        self._tenant = tenant
        self._telemetry = (
            telemetry if telemetry is not None else get_telemetry()
        )
        # Per-query spans and flight-recorder offers only run when
        # someone is actually watching; the default point-query path
        # stays the two-clock-read fast path.
        self._observed = (
            self._telemetry.flight.enabled
            or self._telemetry.profiler.enabled
        )
        self._stats = ServiceStats(
            telemetry=self._telemetry, tenant=tenant
        )
        self._cache: MutableMapping[Tuple[Vertex, Vertex], float] = (
            {} if cache_size is None else BoundedCache(cache_size)
        )
        self._graph = graph
        if self._plan is None:
            # No partition, no subgraph, no relay, no split: the lone
            # tenant serves the service's graph on the full budget.
            self._shard_params = epoch_budget
            self._relay_params: PrivacyParams | None = None
            self._tenants = [_Tenant(tenant, graph)]
            self._shards: _ShardRouter | None = None
        else:
            self._shard_params = PrivacyParams(
                epoch_budget.eps * (1.0 - RELAY_FRACTION),
                epoch_budget.delta * (1.0 - RELAY_FRACTION),
            )
            self._relay_params = PrivacyParams(
                epoch_budget.eps * RELAY_FRACTION,
                epoch_budget.delta * RELAY_FRACTION,
            )
            self._shards = _ShardRouter(
                self._plan,
                graph,
                [f"{tenant}/shard-{shard}" for shard in range(shards)],
            )
            self._tenants = self._shards.tenants
        self._build_epoch()
        self._telemetry.emit(
            "service.start",
            tenant=self._tenant,
            epoch=self._ledger.epoch,
            mechanism=self._mechanism,
            shards=self.num_shards,
        )

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def _build_epoch(self) -> None:
        """Release every tenant's synopsis, then the relay — a fixed
        rng order."""
        for tenant in self._tenants:
            self._build_tenant(tenant)
        if self._shards is not None:
            self._build_relay()
        self._stats.record_epoch_built()
        self._bind_metrics()

    def _build_tenant(self, tenant: _Tenant) -> None:
        """Release one tenant's synopsis for the current epoch."""
        # Scope the service's bundle over the build so the layers it
        # does not call directly — the ledger spend, the mechanism
        # contest, a hub build inside mech.build — record here too.
        start = time.perf_counter()
        with use_telemetry(self._telemetry), self._telemetry.span(
            "synopsis.build", tenant=tenant.name
        ) as span:
            name = self._forced_mechanism or auto_select_mechanism(
                tenant.graph, self._shard_params, self._weight_bound
            )
            span.set_attribute("mechanism", name)
            mech = get_mechanism(name)
            params = MechanismParams(
                budget=self._shard_params, weight_bound=self._weight_bound
            )
            # Validate mechanism preconditions before touching the ledger,
            # so a config or precondition error never burns epoch budget.
            # The checks are public (topology, connectivity, the declared
            # bound's pre-noise precondition).
            mech.validate(tenant.graph, params)
            # Spend first, release second: if the ledger refuses, no noise
            # is ever drawn and nothing about the weights leaks.
            self._ledger.spend(
                self._shard_params,
                tenant=tenant.name,
                label=f"epoch {self._ledger.epoch} {name} synopsis",
            )
            tenant.synopsis = mech.build(tenant.graph, params, self._rng)
            self._telemetry.emit(
                "synopsis.build",
                tenant=tenant.name,
                epoch=self._ledger.epoch,
                mechanism=name,
                forced=self._forced_mechanism is not None,
            )
        tenant.mechanism = name
        self._telemetry.registry.histogram(
            "build.latency", phase="synopsis", mechanism=name
        ).observe(time.perf_counter() - start)

    def _build_relay(self) -> None:
        """Release the boundary-hub relay table for the current epoch.

        Spends the relay tenant's budget first (fail closed — a
        refused spend draws no noise), then builds a hub structure
        over the boundary sites, with the default hub count and ball
        size for that many sites, on the *full* graph's CSR, so relay
        distances may traverse any shard.
        """
        assert self._shards is not None and self._relay_params is not None
        boundary = self._shards.boundary
        m = len(boundary)
        start = time.perf_counter()
        with use_telemetry(self._telemetry), self._telemetry.span(
            "relay.build", sites=m, tenant=self._tenant
        ):
            self._ledger.spend(
                self._relay_params,
                tenant=f"{self._tenant}/relay",
                label=(
                    f"epoch {self._ledger.epoch} boundary-hub relay "
                    f"({m} sites)"
                ),
            )
            csr = CSRGraph.from_graph(self._graph)
            structure = build_hub_structure(
                csr,
                boundary,
                default_hub_count(m),
                default_ball_size(m),
                self._relay_params.eps,
                self._relay_params.delta,
                self._rng,
            )
            self._telemetry.emit(
                "relay.build",
                epoch=self._ledger.epoch,
                tenant=f"{self._tenant}/relay",
                sites=m,
            )
        self._telemetry.registry.histogram(
            "build.latency", phase="relay", mechanism="boundary-relay"
        ).observe(time.perf_counter() - start)
        self._shards.set_relay(structure)

    def _bind_metrics(self) -> None:
        """Re-bind the hot path after every build: the mechanism label
        and the latency histograms, so the ``mechanism`` label tracks
        the current epoch's selection without a registry lookup per
        query.  Sharded point queries are split by ``route`` (intra
        vs. cross-shard) — the routes have very different cost
        profiles."""
        inner = sorted(set(self.shard_mechanisms))
        label = inner[0] if len(inner) == 1 else "mixed"
        if self._shards is None:
            service, routes = "distance", {"point": {}}
        else:
            label = f"sharded({self.num_shards}x{label}+relay)"
            service = "sharded"
            routes = {route: {"route": route} for route in ("intra", "cross")}
        registry = self._telemetry.registry
        self._mechanism = label
        self._query_latency = {
            route: registry.histogram(
                "serving.query.latency",
                service=service,
                mechanism=label,
                **route_label,
            )
            for route, route_label in routes.items()
        }
        self._batch_labels = {"service": service, "mechanism": label}
        self._batch_latency = registry.histogram(
            "serving.batch.latency", **self._batch_labels
        )

    def refresh(self, graph: WeightedGraph | None = None) -> None:
        """Start a new epoch: swap in fresh weights (the current ones
        unless a new graph is given), clear the answer cache, and
        rebuild every tenant and the relay.

        ``graph`` must carry the service's public topology: its
        vertex and edge sets, in the service's order or any other
        (each edge in either orientation).  Its weights are read into
        the service's order and the service re-weights its own graph,
        keeping the compiled structure and its topology memo; it never
        reads ``graph`` again.  Another topology raises
        :class:`~repro.exceptions.GraphError`, as does a directed
        graph, and a negative or non-finite weight
        :class:`~repro.exceptions.WeightError`, before the ledger
        rotates or any budget is spent, sharded or not.

        A privately owned ledger is rotated — the new weights are a
        new database, so the budget resets.  A *shared* ledger is NOT
        rotated: other tenants may still be serving releases of the
        current epoch's data, and rotating under them would let their
        budgets reset against an unchanged database.  With a shared
        ledger the rebuilds spend from the remaining epoch budget
        (failing closed per tenant if exhausted); the ledger's owner
        decides when the epoch actually turns via
        :meth:`~repro.serving.ledger.BudgetLedger.rotate`.
        """
        with use_telemetry(self._telemetry), self._telemetry.span(
            "epoch.refresh", tenant=self._tenant, shards=self.num_shards
        ):
            if graph is not None:
                _check_servable(graph)
                weights = _refresh_weights(self._graph, graph)
            if self._owns_ledger:
                self._ledger.rotate()
            if graph is not None:
                self._graph = self._graph.with_weights(weights)
            self._cache.clear()
            # Drop every release first: if a rebuild fails partway, the
            # tenants not yet rebuilt must refuse to serve rather than
            # silently answer the new epoch from the previous epoch's
            # release.
            if self._shards is not None:
                self._shards.relay = None
            for shard, tenant in enumerate(self._tenants):
                tenant.synopsis = None
                tenant.graph = self._tenant_graph(shard, self._graph)
            self._build_epoch()
            self._telemetry.emit(
                "epoch.refresh",
                tenant=self._tenant,
                epoch=self._ledger.epoch,
                mechanism=self._mechanism,
                shards=self.num_shards,
                rotated=self._owns_ledger,
            )

    def refresh_shard(
        self,
        shard: int,
        weights: Mapping[Edge, float] | Sequence[float] | None = None,
    ) -> None:
        """Regional epoch update: rebuild one tenant plus the relay.

        ``shard`` is an integer id in ``[0, num_shards)``; anything
        else, a bool or a float too, raises
        :class:`~repro.exceptions.GraphError` before anything moves.
        Unsharded, shard 0 is the whole graph.

        ``weights`` (a mapping, or a vector in the service's edge
        order: the :meth:`~repro.graphs.graph.WeightedGraph.edge_list`
        order of the graph it was built with, whatever order later
        refresh graphs came in) may only differ from the current
        weights on the shard's own edges and on cut edges — anything
        else would silently stale the untouched tenants, so it raises
        :class:`~repro.exceptions.GraphError` before any budget is
        spent, as a negative or non-finite weight raises
        :class:`~repro.exceptions.WeightError`.  ``None`` re-releases
        the shard on the current weights.

        The tenant and the relay each spend again from the remaining
        epoch budget (no rotation — the other shards are still serving
        this epoch), so refreshed regions accumulate loss toward each
        tenant's per-epoch cap (see :mod:`repro.serving.sharding`'s
        accounting note), failing closed independently: a refused
        tenant spend leaves the relay and the other shards untouched;
        a refused relay spend leaves every shard serving but
        cross-shard queries refusing until the next successful
        refresh.  The answer cache is cleared before either spend, so
        a refused tenant's cached pairs refuse like its uncached ones.
        """
        n = self.num_shards
        if isinstance(shard, bool) or not (
            isinstance(shard, numbers.Integral) and 0 <= shard < n
        ):
            raise GraphError(f"shard id {shard} out of range [0, {n})")
        with use_telemetry(self._telemetry), self._telemetry.span(
            "shard.refresh", shard=shard, tenant=self._tenant
        ):
            new_graph = (
                self._graph
                if weights is None
                else self._graph.with_weights(weights)
            )
            # Every check and build below reads this one vector, in the
            # service's edge order.
            vector = CSRGraph.from_graph(new_graph).edge_weights
            if weights is not None and self._shards is not None:
                current = CSRGraph.from_graph(self._graph).edge_weights
                self._shards.check_regional(shard, current, vector)
            if not (np.isfinite(vector) & (vector >= 0)).all():
                # Raises, naming the first offending edge.
                new_graph.check_nonnegative()
            # Drop cached answers before the release they came from:
            # a refused rebuild must refuse them too, not keep serving
            # the old release for whichever pairs happen to be cached.
            self._cache.clear()
            tenant = self._tenants[shard]
            tenant.graph = self._tenant_graph(shard, new_graph)
            # Fails closed on budget before any noise is drawn; on
            # failure the tenant refuses to serve but nothing else
            # moved.
            tenant.synopsis = None
            self._build_tenant(tenant)
            self._graph = new_graph
            self._stats.record_shard_refresh()
            if self._shards is not None:
                self._shards.relay = None
                self._build_relay()
            self._telemetry.emit(
                "shard.refresh",
                tenant=self._tenant,
                epoch=self._ledger.epoch,
                shard=shard,
            )
        self._bind_metrics()

    def _tenant_graph(  # privlint: ignore[PL1] feeds the tenant's budgeted synopsis build
        self, shard: int, graph: WeightedGraph
    ) -> WeightedGraph:
        """The graph tenant ``shard`` serves, carrying ``graph``'s
        weights (``graph`` is the service's graph or a re-weighting of
        it): ``graph`` itself when unsharded, else the tenant's
        subgraph re-weighted by one gather of ``graph``'s compiled
        edge weights through the tenant's edge positions (the clone
        keeps the compiled CSR structure)."""
        if self._shards is None:
            return graph
        return self._tenants[shard].graph.with_weights(
            CSRGraph.from_graph(graph).edge_weights[
                self._shards.tenant_edges[shard]
            ]
        )

    # ------------------------------------------------------------------
    # Query serving (post-processing only)
    # ------------------------------------------------------------------

    def query(self, source: Vertex, target: Vertex) -> float:
        """Answer one distance query from the current epoch's
        releases (routed by shard ownership when sharded)."""
        # A miss asks the shard router, or the lone tenant's synopsis,
        # which refuses after a failed rebuild.
        shards = self._shards
        if shards is None:
            router, route = self._tenants[0].released(), "point"
        else:
            router, route = shards, shards.route(source, target)
        observed = self._observed
        start = time.perf_counter()
        with (
            self._telemetry.span(
                "query.point",
                tenant=self._tenant,
                route=route,
                mechanism=self._mechanism,
            )
            if observed
            else _NULL_SPAN_CONTEXT
        ) as span:
            key = canonical_pair(source, target)
            hit = key in self._cache
            if hit:
                value = self._cache[key]
            else:
                value = router.distance(source, target)
                self._cache[key] = value
            span.set_attribute("cache_hit", hit)
        elapsed = time.perf_counter() - start
        self._query_latency[route].observe(elapsed)
        self._stats.record_point_query(hit)
        if observed:
            self._telemetry.flight.consider(
                elapsed,
                pair=(source, target),
                route=route,
                mechanism=self._mechanism,
                epoch=self._ledger.epoch,
                tenant=self._tenant,
                span=span,
                cache_hit=hit,
            )
        return value

    def query_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> BatchReport:
        """Serve a batch with in-batch dedup and the cross-batch
        cache; answers align with the input order.  See
        :class:`~repro.serving.batching.BatchPlanner`."""
        planner = BatchPlanner(
            self._shards or self._tenants[0].released(),
            cache=self._cache,
            telemetry=self._telemetry,
            labels=self._batch_labels,
        )
        report = planner.run(pairs)
        self._batch_latency.observe(report.elapsed_seconds)
        self._stats.record_batch(report)
        return report

    def _noise_scale_for(
        self, source: Vertex, target: Vertex, value: float
    ) -> float:
        """The effective noise scale behind the served answer
        ``value``: the shard router's routed scale, or the lone
        synopsis's scale for the pair."""
        if self._shards is not None:
            return self._shards.noise_scale_for(source, target, value)
        return self._tenants[0].released().noise_scale_for(source, target)

    def estimate(self, source: Vertex, target: Vertex) -> Estimate:
        """One distance query as a rich
        :class:`~repro.serving.estimates.Estimate` — the ``query()``
        value (bit-identical, shared cache and counters) plus the
        effective noise scale of the release that served it,
        mechanism, and epoch.  The scale is stated where the answer
        is composed: by the lone synopsis's ``noise_scale_for``, or
        by the shard router for the branch that served the pair."""
        value = self.query(source, target)
        return Estimate(
            value=value,
            noise_scale=self._noise_scale_for(source, target, value),
            mechanism=self._mechanism,
            epoch=self._ledger.epoch,
        )

    def estimate_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> List[Estimate]:
        """A batch of rich estimates, aligned with the input order.

        Values come from :meth:`query_batch` (same dedupe, cache, and
        counters); scales are free post-processing of the released
        tables' structure.
        """
        report = self.query_batch(pairs)
        mechanism, epoch = self._mechanism, self._ledger.epoch
        return [
            Estimate(
                value=value,
                noise_scale=self._noise_scale_for(s, t, value),
                mechanism=mechanism,
                epoch=epoch,
            )
            for (s, t), value in zip(pairs, report.answers)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mechanism(self) -> str:
        """The mechanism backing the current releases: the tenant's
        catalog name when unsharded, ``sharded(KxMECH+relay)``
        otherwise."""
        return self._mechanism

    @property
    def synopsis(self) -> DistanceSynopsis:
        """The current epoch's synopsis (immutable; shippable) of an
        unsharded service; a sharded one holds one per shard
        (:attr:`shard_synopses`)."""
        if self._shards is not None:
            raise GraphError(
                "a sharded service holds one synopsis per shard; see "
                "shard_synopses"
            )
        return self._tenants[0].released()

    @property
    def plan(self) -> ShardPlan | None:
        """The (public) shard plan the service routes by:
        ``partition_graph(graph, shards)``'s, or ``None`` unsharded."""
        return self._plan

    @property
    def num_shards(self) -> int:
        """How many regional tenants the service runs."""
        return len(self._tenants)

    @property
    def shard_synopses(self) -> Tuple[DistanceSynopsis | None, ...]:
        """Each tenant's current synopsis, in shard order (``None``
        for a tenant whose last rebuild failed)."""
        return tuple(t.synopsis for t in self._tenants)

    @property
    def shard_mechanisms(self) -> Tuple[str, ...]:
        """The mechanism each tenant selected."""
        return tuple(t.mechanism for t in self._tenants)

    @property
    def relay(self) -> HubStructure | None:
        """The released boundary-hub relay structure (``None`` for a
        single-shard service, or after a failed rebuild)."""
        return None if self._shards is None else self._shards.relay

    @property
    def relay_params(self) -> PrivacyParams | None:
        """The relay tenant's per-epoch budget share."""
        return self._relay_params

    @property
    def shard_params(self) -> PrivacyParams:
        """Each tenant's per-epoch budget share."""
        return self._shard_params

    @property
    def ledger(self) -> BudgetLedger:
        """The budget ledger every tenant spends against."""
        return self._ledger

    @property
    def epoch(self) -> int:
        """The ledger epoch currently being served."""
        return self._ledger.epoch

    @property
    def epoch_budget(self) -> PrivacyParams:
        """The per-epoch privacy budget (before any split)."""
        return self._budget

    @property
    def stats(self) -> ServiceStats:
        """Running serving counters."""
        return self._stats

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle this service records into."""
        return self._telemetry

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self.num_shards}, "
            f"mechanism={self._mechanism!r}, budget={self._budget}, "
            f"epoch={self._ledger.epoch}, "
            f"queries={self._stats.num_queries})"
        )
