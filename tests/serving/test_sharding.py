"""Unit tests for :mod:`repro.serving.sharding` — the partitioner,
its plan, and the sharded service with its boundary-hub relays."""

from __future__ import annotations

import numpy as np
import pytest
from topology_reference import reference_cut, reference_subgraph

from repro import (
    BudgetExceededError,
    PrivacyParams,
    Rng,
)
from repro.algorithms.shortest_paths import all_pairs_dijkstra
from repro.algorithms.traversal import is_connected
from repro.exceptions import (
    DisconnectedGraphError,
    GraphError,
    PrivacyError,
    ReproError,
    VertexNotFoundError,
    WeightError,
)
from repro.graphs import WeightedGraph, generators
from repro.mechanisms import available_mechanisms
from repro.serving import (
    BudgetLedger,
    DistanceService,
    ShardPlan,
    ShardedDistanceService,
    partition_graph,
)
from repro.serving.routing import _ShardRouter
from repro.serving.sharding import RELAY_FRACTION
from repro.workloads import grid_road_network, uniform_pairs


@pytest.fixture
def road():
    return grid_road_network(8, 8, Rng(21)).graph


class TestPartitionGraph:
    def test_balanced_connected_regions(self, road):
        plan = partition_graph(road, 4, seed=7)
        sizes = plan.shard_sizes()
        assert sum(sizes) == road.num_vertices
        assert min(sizes) >= 1
        for shard in range(4):
            assert is_connected(road.subgraph(plan.members(shard)))

    def test_deterministic_given_seed(self, road):
        a = partition_graph(road, 3, seed=5)
        b = partition_graph(road, 3, seed=5)
        assert a.num_shards == b.num_shards == 3
        assert list(a.assignment().items()) == list(b.assignment().items())

    def test_boundary_is_exactly_cut_endpoints(self, road):
        """The router derives the relay sites from the plan: the
        endpoints of the cut edges, as sorted vertex indices."""
        plan = partition_graph(road, 3, seed=1)
        router = _ShardRouter(plan, road, [])
        vertices, edges = road.vertex_list(), road.edge_list()
        boundary, cut = reference_cut(road, plan.assignment())
        assert tuple(vertices[i] for i in router.boundary.tolist()) == (
            boundary
        )
        assert tuple(
            edges[e] for e in np.flatnonzero(router._edge_shard == -1)
        ) == cut

    def test_single_shard_has_no_cut(self, road):
        plan = partition_graph(road, 1, seed=0)
        router = _ShardRouter(plan, road, [])
        assert len(router.boundary) == 0
        assert (router._edge_shard == 0).all()
        assert plan.shard_sizes() == [road.num_vertices]

    def test_invalid_args(self, road):
        with pytest.raises(GraphError):
            partition_graph(road, 0)
        with pytest.raises(GraphError):
            partition_graph(road, road.num_vertices + 1)
        island = road.copy()
        island.add_vertex("island")
        with pytest.raises(DisconnectedGraphError):
            partition_graph(island, 2)


def _graph_state(graph: WeightedGraph):
    """Everything insertion order decides."""
    return (
        graph.vertex_list(),
        list(graph.weights().items()),
        [list(graph.neighbors(v)) for v in graph.vertices()],
    )


class TestTenantSubgraphs:
    """Each tenant's graph is built from its shard's slice of the edge
    list; it must be the induced subgraph on the shard's members."""

    @pytest.mark.parametrize("shards", range(2, 9))
    def test_tenant_graphs_are_the_induced_subgraphs(self, road, shards):
        service = DistanceService(
            road, 1.0, Rng(3), shards=shards, mechanism="all-pairs-basic"
        )
        plan = service.plan
        for shard, graph in enumerate(
            tenant.graph for tenant in service._tenants
        ):
            want = reference_subgraph(road, plan.members(shard))
            assert _graph_state(graph) == _graph_state(want)
            assert _graph_state(graph) == _graph_state(
                road.subgraph(plan.members(shard))
            )


class TestShardPlan:
    def test_shard_of_unknown_vertex(self, road):
        plan = partition_graph(road, 2, seed=0)
        with pytest.raises(VertexNotFoundError):
            plan.shard_of("nowhere")

    def test_members_partition_vertices(self, road):
        plan = partition_graph(road, 3, seed=2)
        seen = set()
        for shard in range(3):
            members = plan.members(shard)
            assert all(plan.shard_of(v) == shard for v in members)
            seen.update(members)
        assert seen == set(road.vertices())
        with pytest.raises(GraphError):
            plan.members(3)

    def test_empty_shard_rejected(self, road):
        assignment = {v: 0 for v in road.vertices()}
        with pytest.raises(GraphError):
            ShardPlan(2, assignment)


class TestSingleShardEquivalence:
    """ISSUE acceptance: ``shards=1`` matches the unsharded service
    bit for bit under the same seed."""

    def test_queries_match_bit_for_bit(self):
        graph = grid_road_network(6, 6, Rng(9)).graph
        unsharded = DistanceService(graph, 1.0, Rng(42))
        sharded = ShardedDistanceService(graph, 1.0, Rng(42), shards=1)
        assert sharded.mechanism == unsharded.mechanism
        assert sharded.num_shards == 1
        assert sharded.relay is None
        for s, t in uniform_pairs(graph, 60, Rng(5)):
            assert sharded.query(s, t) == unsharded.query(s, t)

    def test_batches_match_bit_for_bit(self):
        graph = grid_road_network(5, 5, Rng(10)).graph
        unsharded = DistanceService(graph, 1.0, Rng(7))
        sharded = ShardedDistanceService(graph, 1.0, Rng(7), shards=1)
        pairs = uniform_pairs(graph, 40, Rng(8))
        a = unsharded.query_batch(pairs)
        b = sharded.query_batch(pairs)
        assert a.answers == b.answers
        assert a.num_unique == b.num_unique

    def test_refresh_matches_bit_for_bit(self):
        graph = grid_road_network(5, 5, Rng(11)).graph
        fresh = graph.with_weights(
            {e: w * 1.5 for e, w in graph.weights().items()}
        )
        unsharded = DistanceService(graph, 1.0, Rng(3))
        sharded = ShardedDistanceService(graph, 1.0, Rng(3), shards=1)
        unsharded.refresh(fresh)
        sharded.refresh(fresh)
        for s, t in uniform_pairs(graph, 30, Rng(4)):
            assert sharded.query(s, t) == unsharded.query(s, t)

    def test_full_budget_goes_to_the_single_tenant(self):
        graph = grid_road_network(4, 4, Rng(12)).graph
        sharded = ShardedDistanceService(
            graph, PrivacyParams(0.7, 1e-6), Rng(1), shards=1
        )
        assert sharded.shard_params == PrivacyParams(0.7, 1e-6)
        assert sharded.relay_params is None
        records = sharded.ledger.records()
        assert len(records) == 1
        assert records[0].params == PrivacyParams(0.7, 1e-6)


class TestCrossShardRouting:
    def test_near_noiseless_cross_answers_bracket_truth(self):
        """With a huge eps the relay estimate must be at least the
        true distance (triangle inequality on exact segments) and at
        most a small relay-detour factor above it."""
        graph = grid_road_network(8, 8, Rng(11)).graph
        service = ShardedDistanceService(
            graph, 1e9, Rng(13), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        pairs = uniform_pairs(graph, 150, Rng(17))
        cross = [
            (s, t)
            for s, t in pairs
            if plan.shard_of(s) != plan.shard_of(t)
        ]
        assert cross  # the sample must exercise the relay path
        sweep = all_pairs_dijkstra(graph, sources=list({s for s, _ in cross}))
        for s, t in cross:
            true = sweep[s][t]
            answer = service.query(s, t)
            assert answer >= true - 1e-3
            assert answer <= 3.0 * true + 1e-3

    def test_intra_shard_capped_by_owning_synopsis(self, road):
        """Intra answers are the min of the owning shard's synopsis
        and the relay decomposition through the shard's own boundary
        (a border pair's corridor may leave the shard), so they can
        only improve on the induced-subgraph estimate."""
        service = ShardedDistanceService(
            road, 1.0, Rng(19), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        for shard in range(2):
            members = plan.members(shard)
            s, t = members[0], members[-1]
            direct = service.shard_synopses[shard].distance(s, t)
            assert service.query(s, t) <= direct

    def test_intra_relay_cap_beats_subgraph_detour(self):
        """Near-noiseless: an intra-shard pair whose true corridor
        dips into the neighboring shard must not be stuck with the
        induced-subgraph detour — answers stay within the same detour
        bracket as cross pairs."""
        graph = grid_road_network(8, 8, Rng(11)).graph
        service = ShardedDistanceService(
            graph, 1e9, Rng(13), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        pairs = [
            (s, t)
            for s, t in uniform_pairs(graph, 150, Rng(18))
            if plan.shard_of(s) == plan.shard_of(t)
        ]
        assert pairs
        sweep = all_pairs_dijkstra(graph, sources=list({s for s, _ in pairs}))
        for s, t in pairs:
            true = sweep[s][t]
            answer = service.query(s, t)
            assert answer >= true - 1e-3
            assert answer <= 3.0 * true + 1e-3

    def test_cross_shard_estimate_matches_manual_relay_min(self, road):
        """The routed answer must equal the decomposition
        ``min d_i(s, b_s) + relay(b_s, b_t) + d_j(b_t, t)`` computed
        by hand from the released pieces."""
        service = ShardedDistanceService(
            road, 1.0, Rng(23), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        s = plan.members(0)[0]
        t = plan.members(1)[0]
        relay = service.relay
        boundary, _ = reference_cut(road, plan.assignment())
        assert relay.num_sites == len(boundary)
        site_of = {v: p for p, v in enumerate(boundary)}
        best = float("inf")
        for a in boundary:
            if plan.shard_of(a) != 0:
                continue
            da = service.shard_synopses[0].distance(s, a)
            for b in boundary:
                if plan.shard_of(b) != 1:
                    continue
                db = service.shard_synopses[1].distance(t, b)
                mid = relay.estimate(site_of[a], site_of[b])
                best = min(best, da + mid + db)
        expected = max(best, 0.0)
        # estimate() clamps relay legs at 0 individually; the routed
        # answer uses the raw relay min, so it can only be tighter.
        assert service.query(s, t) <= expected + 1e-9

    def test_cross_and_point_queries_share_cache(self, road):
        service = ShardedDistanceService(road, 1.0, Rng(29), shards=2)
        plan = service.plan
        s, t = plan.members(0)[0], plan.members(1)[0]
        first = service.query(s, t)
        assert service.query(t, s) == first
        assert service.stats.cache_hits == 1
        report = service.query_batch([(s, t), (t, s)])
        assert report.answers == [first, first]
        assert report.cache_hits == 1  # one distinct pair, cached
        assert report.num_unique == 1

    def test_query_unknown_vertex(self, road):
        service = ShardedDistanceService(road, 1.0, Rng(31), shards=2)
        with pytest.raises(VertexNotFoundError):
            service.query("nowhere", plan_member(service, 0))


def plan_member(service: ShardedDistanceService, shard: int):
    return service.plan.members(shard)[0]


class TestBudgetAccounting:
    def test_budget_split_and_tenants(self, road):
        service = ShardedDistanceService(
            road, PrivacyParams(1.0, 1e-6), Rng(33), shards=3
        )
        assert service.shard_params == PrivacyParams(
            1.0 - RELAY_FRACTION, 1e-6 * (1.0 - RELAY_FRACTION)
        )
        assert service.relay_params == PrivacyParams(
            RELAY_FRACTION, 1e-6 * RELAY_FRACTION
        )
        tenants = set(service.ledger.tenants)
        assert tenants == {
            "sharded-distance-service/shard-0",
            "sharded-distance-service/shard-1",
            "sharded-distance-service/shard-2",
            "sharded-distance-service/relay",
        }
        assert len(service.ledger.records()) == 4

    def test_shard_tenant_fails_closed_on_exhaustion(self, road):
        """ISSUE acceptance: per-shard-tenant budget exhaustion fails
        closed — the dead shard refuses, the others keep serving."""
        service = ShardedDistanceService(
            road, 1.0, Rng(35), shards=2, mechanism="hub-set"
        )
        service.refresh_shard(0)  # shard-0 at 1.0, relay at 1.0
        records = len(service.ledger.records())
        with pytest.raises(BudgetExceededError):
            service.refresh_shard(0)  # 1.5 > 1.0: refused pre-noise
        assert len(service.ledger.records()) == records
        s1 = service.plan.members(1)
        assert isinstance(service.query(s1[0], s1[1]), float)
        s0 = service.plan.members(0)
        with pytest.raises(PrivacyError):
            service.query(s0[0], s0[1])

    def test_refused_shard_refuses_its_cached_pairs(self):
        """A refused refresh_shard drops the shard's cached answers
        with its release: cached and uncached pairs of the dead shard
        both refuse, as they do on the one-shard service."""
        grid = generators.grid_graph(8, 8)
        service = ShardedDistanceService(
            grid, 1e6, Rng(0), shards=2, mechanism="hub-set"
        )
        single = DistanceService(grid, 1e6, Rng(0), mechanism="hub-set")
        a, b, c = service.plan.members(0)[:3]
        service.refresh_shard(0)  # shard 0 and the relay at their caps
        for server in (service, single):
            server.query(a, b)  # now cached
            with pytest.raises(BudgetExceededError):
                server.refresh_shard(0)
            for pair in ((a, b), (a, c)):
                with pytest.raises(PrivacyError):
                    server.query(*pair)

    def test_relay_failure_keeps_intra_serving(self, road):
        service = ShardedDistanceService(
            road, 1.0, Rng(37), shards=2, mechanism="hub-set"
        )
        service.refresh_shard(0)  # relay tenant now at its cap
        with pytest.raises(BudgetExceededError):
            service.refresh_shard(1)  # shard-1 ok, relay spend refused
        assert service.relay is None
        s0, s1 = service.plan.members(0), service.plan.members(1)
        assert isinstance(service.query(s0[0], s0[1]), float)
        assert isinstance(service.query(s1[0], s1[1]), float)
        with pytest.raises(PrivacyError):
            service.query(s0[0], s1[0])
        # A full refresh (epoch rotation) restores cross-shard serving.
        service.refresh()
        assert isinstance(service.query(s0[0], s1[0]), float)


class TestFullRefreshFailsClosed:
    def test_refresh_graph_off_the_plan_rejected_before_rotation(
        self, road
    ):
        """A refresh graph missing one shard-1 edge must be refused
        before the ledger rotates or any tenant spends — not halfway
        through the rebuilds, with shard 1 still answering from the
        previous epoch."""
        service = ShardedDistanceService(
            road, 1e6, Rng(59), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        u, v = next(
            (u, v)
            for u, v in road.edge_list()
            if plan.shard_of(u) == plan.shard_of(v) == 1
        )
        missing_edge = road.copy()
        missing_edge.remove_edge(u, v)
        extra_vertex = road.copy()
        extra_vertex.add_vertex("island")
        records = len(service.ledger.records())
        for graph in (missing_edge, extra_vertex):
            with pytest.raises(GraphError):
                service.refresh(graph)
        assert len(service.ledger.records()) == records
        assert service.epoch == 0

    def test_refused_spend_mid_refresh_leaves_unbuilt_shards_refusing(
        self, road
    ):
        """On a shared ledger a tenant spend refused partway through a
        full refresh must leave every shard not yet rebuilt refusing,
        not serving its previous release."""
        ledger = BudgetLedger(PrivacyParams(1.0))
        service = ShardedDistanceService(
            road, 1.0, Rng(61), shards=3, mechanism="hub-set",
            ledger=ledger,
        )
        # Shard 1's account is now full: shard 0 rebuilds, then the
        # refresh stops at shard 1's spend.
        ledger.spend(
            PrivacyParams(0.5), tenant="sharded-distance-service/shard-1"
        )
        with pytest.raises(BudgetExceededError):
            service.refresh()
        members = [service.plan.members(shard) for shard in range(3)]
        s0 = members[0]
        assert isinstance(service.query(s0[0], s0[-1]), float)
        for shard in (1, 2):
            a, b = members[shard][0], members[shard][-1]
            with pytest.raises(PrivacyError):
                service.query(a, b)
        with pytest.raises(PrivacyError):
            service.query(s0[0], members[1][0])


class TestRegionalRefresh:
    def test_refresh_rebuilds_only_target_shard(self, road):
        service = ShardedDistanceService(
            road, 1.0, Rng(41), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        replaced, untouched = service.shard_synopses
        weights = road.weights()
        for (u, v), w in list(weights.items()):
            if plan.shard_of(u) == plan.shard_of(v) == 0:
                weights[(u, v)] = w * 1.4
        service.refresh_shard(0, weights)
        # Shard 1's synopsis object is untouched; shard 0's is new.
        assert service.shard_synopses[1] is untouched
        assert service.shard_synopses[0] is not replaced
        assert service.stats.shard_refreshes == 1
        # Tenants keep no counters: the ledger shows who rebuilt.
        spenders = [r.tenant for r in service.ledger.records()]
        assert spenders.count("sharded-distance-service/shard-0") == 2
        assert spenders.count("sharded-distance-service/shard-1") == 1

    def test_non_regional_update_rejected_before_spending(self, road):
        service = ShardedDistanceService(
            road, 1.0, Rng(43), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        records = len(service.ledger.records())
        weights = road.weights()
        for (u, v), w in list(weights.items()):
            if plan.shard_of(u) == plan.shard_of(v) == 1:
                weights[(u, v)] = w + 1.0
                break
        with pytest.raises(GraphError):
            service.refresh_shard(0, weights)
        assert len(service.ledger.records()) == records

    def test_cut_edge_updates_are_regional(self, road):
        service = ShardedDistanceService(
            road, 1.0, Rng(45), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        weights = road.weights()
        cut = next(
            (u, v)
            for u, v in road.edge_list()
            if plan.shard_of(u) != plan.shard_of(v)
        )
        weights[cut] += 0.5
        service.refresh_shard(0, weights)  # must not raise
        assert service.stats.shard_refreshes == 1

    def test_bad_shard_id(self, road):
        service = ShardedDistanceService(road, 1.0, Rng(47), shards=2)
        with pytest.raises(GraphError):
            service.refresh_shard(2)

    @pytest.mark.parametrize(
        "shard", [True, 1.5, "1", None], ids=["bool", "float", "str", "none"]
    )
    def test_non_integer_shard_id_refused_before_anything_moves(
        self, shard
    ):
        """A bool is not shard 1 and a float is not an id: both are
        refused as out of range before the cache clears or anything
        spends, so a pair answered before stays a cache hit."""
        grid = generators.grid_graph(8, 8)
        service = ShardedDistanceService(
            grid, 1e6, Rng(48), shards=4, mechanism="hub-set"
        )
        pair = ((0, 0), (7, 7))
        value = service.query(*pair)
        spends = len(service.ledger.records())
        with pytest.raises(GraphError, match="out of range"):
            service.refresh_shard(shard)
        assert len(service.ledger.records()) == spends
        assert service.stats.shard_refreshes == 0
        assert service.query(*pair) == value
        assert service.stats.cache_hits == 1

    def test_numpy_integer_shard_id_served(self, road):
        service = ShardedDistanceService(road, 1.0, Rng(47), shards=2)
        service.refresh_shard(np.int64(1))
        assert service.stats.shard_refreshes == 1


class TestConstruction:
    def test_needs_shards(self, road):
        with pytest.raises(GraphError, match="needs shards="):
            ShardedDistanceService(road, 1.0, Rng(49))

    def test_disconnected_graph_refused_before_spending(self):
        """Two disjoint grids: the partition refuses the graph before
        any tenant spends."""
        graph = WeightedGraph()
        for part in range(2):
            for u, v, w in generators.grid_graph(4, 4).edges():
                graph.add_edge((part, u), (part, v), w)
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(
            DisconnectedGraphError,
            match="sharded serving requires a connected graph",
        ):
            DistanceService(
                graph, 1.0, Rng(84), shards=2, ledger=ledger,
                mechanism="all-pairs-basic",
            )
        assert ledger.records() == []

    def test_mechanism_label(self, road):
        service = ShardedDistanceService(
            road, 1.0, Rng(55), shards=2, mechanism="hub-set"
        )
        assert service.mechanism == "sharded(2xhub-set+relay)"

    def test_simulate_accepts_shards(self):
        from repro.serving import ServingConfig, replay_rush_hour

        report = replay_rush_hour(
            Rng(57), ServingConfig(eps=1.0, shards=2), rows=6, cols=6,
            epochs=2, queries_per_epoch=40,
        )
        assert report.total_queries == 80
        assert report.mechanism.startswith("sharded(2x")
        # Two epochs x (2 shard tenants + relay) = 6 ledger spends.
        assert report.ledger_spends == 6


def _served_state(service, pairs):
    """What a refused write must leave alone: the ledger's records,
    the epoch, the release objects and the answers they serve."""
    return (
        list(service.ledger.records()),
        service.epoch,
        service.shard_synopses,
        service.relay,
        [service.query(s, t) for s, t in pairs],
    )


class TestInvalidWeightsRefused:
    """Negative and non-finite weights are refused with WeightError
    before the ledger rotates or anything spends."""

    BAD = [-1.0, float("nan"), float("inf")]

    @pytest.fixture
    def grid(self):
        return grid_road_network(12, 12, Rng(71)).graph

    @pytest.mark.parametrize("bad", BAD)
    def test_refresh_shard_refuses(self, grid, bad):
        service = ShardedDistanceService(
            grid, 1.0, Rng(72), shards=2, mechanism="hub-set"
        )
        plan = service.plan
        pairs = uniform_pairs(grid, 20, Rng(73))
        before = _served_state(service, pairs)
        assert len(before[0]) == 3
        position = next(
            e
            for e, (u, v) in enumerate(grid.edge_list())
            if plan.shard_of(u) == plan.shard_of(v) == 0
        )
        weights = grid.weight_vector()
        weights[position] = bad
        with pytest.raises(WeightError):
            service.refresh_shard(0, weights)
        with pytest.raises(WeightError):
            service.refresh(grid.with_weights(weights))
        assert _served_state(service, pairs) == before

    @pytest.mark.parametrize("bad", BAD)
    def test_unsharded_refresh_refuses(self, grid, bad):
        service = DistanceService(grid, 1.0, Rng(74), mechanism="hub-set")
        pairs = uniform_pairs(grid, 20, Rng(75))
        before = _served_state(service, pairs)
        weights = grid.weight_vector()
        weights[7] = bad
        with pytest.raises(WeightError):
            service.refresh(grid.with_weights(weights))
        with pytest.raises(WeightError):
            service.refresh_shard(0, weights)
        assert _served_state(service, pairs) == before

    @pytest.mark.parametrize(
        "bad", ["string", "none", "mapping-none", "complex"]
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_refresh_shard_refuses_what_float_cannot_read(self, bad, shards):
        """These used to leak float()'s ValueError or TypeError; like
        every refused write they leave the cache and the ledger
        alone."""
        grid = generators.grid_graph(4, 4)
        service = DistanceService(
            grid, 1e6, Rng(79), shards=shards, mechanism="hub-set"
        )
        pair = ((0, 0), (3, 3))
        value = service.query(*pair)
        records = service.ledger.records()
        m = grid.num_edges
        weights = {
            "string": ["a"] * m,
            "none": [None] * m,
            "mapping-none": {grid.edge_list()[0]: None},
            "complex": [1j] * m,
        }[bad]
        with pytest.raises(WeightError, match="is not a number"):
            service.refresh_shard(0, weights)
        assert service.ledger.records() == records
        assert service.query(*pair) == value
        assert service.stats.cache_hits == 1

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_construction_refuses_before_spending(self, grid, bad, shards):
        weights = grid.weight_vector()
        weights[3] = bad
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(WeightError):
            DistanceService(
                grid.with_weights(weights), 1.0, Rng(78), shards=shards,
                mechanism="hub-set", ledger=ledger,
            )
        assert ledger.records() == []


def _digraph():
    """A 12x12 grid digraph: arcs right and down weigh 1, arcs left
    and up weigh 5, so the corner-to-corner distance is 22 one way and
    110 the other."""
    graph = WeightedGraph(directed=True)
    for r in range(12):
        for c in range(12):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < 12 and c + dc < 12:
                    graph.add_edge((r, c), (r + dr, c + dc), 1.0)
                    graph.add_edge((r + dr, c + dc), (r, c), 5.0)
    return graph


class TestDirectedGraphRefused:
    """Answers are cached and released per unordered pair, so a
    directed graph would be served one value for both directions: it
    is refused before the ledger rotates or anything spends."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("mechanism", [None, *available_mechanisms()])
    def test_construction_refused_before_spending(self, mechanism, shards):
        ledger = BudgetLedger(PrivacyParams(1e9))
        bounded = mechanism in ("bounded-weight", "hub-bounded")
        with pytest.raises(GraphError, match="refuses a directed graph"):
            DistanceService(
                _digraph(), 1e9, Rng(86), mechanism=mechanism,
                shards=shards, ledger=ledger,
                weight_bound=5.0 if bounded else None,
            )
        assert ledger.records() == []

    @pytest.mark.parametrize("shards", [1, 2])
    def test_refresh_refused_before_rotating(self, shards):
        graph = grid_road_network(6, 6, Rng(87)).graph
        service = DistanceService(graph, 1.0, Rng(88), shards=shards)
        records = service.ledger.records()
        directed = WeightedGraph.from_edges(
            list(graph.edges()), directed=True
        )
        with pytest.raises(GraphError, match="refuses a directed graph"):
            service.refresh(directed)
        assert service.ledger.records() == records
        assert service.epoch == 0


class TestDirectedPartition:
    """Regions grow along arcs in both directions on a directed graph,
    as they do on its undirected twin."""

    @pytest.mark.parametrize(
        "edges",
        [
            [(i, i + 1) for i in range(20)],
            [(i, (i + 1) % 20) for i in range(20)],
        ],
        ids=["path", "cycle"],
    )
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_balanced_like_the_undirected_twin(self, edges, shards):
        directed = WeightedGraph.from_edges(edges, directed=True)
        twin = WeightedGraph.from_edges(edges)
        for seed in range(5):
            plan = partition_graph(directed, shards, seed=seed)
            want = partition_graph(twin, shards, seed=seed)
            got = plan.shard_sizes()
            assert sum(got) == directed.num_vertices
            assert all(
                abs(a - b) <= 1 for a, b in zip(got, want.shard_sizes())
            )
            for shard in range(shards):
                assert is_connected(twin.subgraph(plan.members(shard)))


class TestOneVertexTenant:
    """A lone vertex covers itself at radius 0 (Lemma 4.4 needs
    ``V >= k + 1``), so the bounded releases serve a one-vertex tenant
    instead of spending and then refusing it; no catalog mechanism
    spends before it refuses."""

    @pytest.fixture(params=["4-shard tree", "one vertex"])
    def case(self, request):
        if request.param == "one vertex":
            graph = WeightedGraph()
            graph.add_vertex("a")
            return graph, None, 1
        # Shard 1 of this plan is one vertex.
        tree = generators.random_tree(40, Rng(0))
        assert partition_graph(tree, 4).shard_sizes() == [32, 1, 3, 4]
        return tree, 4, 5

    @pytest.mark.parametrize("delta", [0.0, 1e-6])
    @pytest.mark.parametrize("mechanism", available_mechanisms())
    def test_served_or_refused_before_any_spend(self, case, mechanism, delta):
        graph, shards, spends = case
        ledger = BudgetLedger(PrivacyParams(1e7, 0.5))
        try:
            service = DistanceService(
                graph, PrivacyParams(1e6, delta), Rng(1), shards=shards,
                mechanism=mechanism, weight_bound=9.0, ledger=ledger,
            )
        except ReproError:
            assert (mechanism, delta) == ("all-pairs-advanced", 0.0)
            assert ledger.records() == []
            return
        assert len(ledger.records()) == spends
        lone = (
            "a" if shards is None else service.plan.members(1)[0]
        )
        assert service.query(lone, lone) == 0.0
        for v in graph.vertices():
            assert np.isfinite(service.query(lone, v))
