"""Unit tests for :mod:`repro.serving.config` — the declarative
serving config, the ``serve()`` factory, and the one
``DistanceService`` surface both shapes share."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import (
    BudgetExceededError,
    DistanceService,
    GraphError,
    MechanismError,
    PrivacyParams,
    Rng,
    ServingConfig,
    ShardedDistanceService,
    serve,
)
from repro.exceptions import PrivacyError
from repro.graphs import generators
from repro.serving import BudgetLedger, replay_rush_hour
from repro.serving.batching import BoundedCache
from repro.telemetry import AuditLog, Telemetry
from repro.workloads import grid_road_network, uniform_pairs


class TestServingConfig:
    def test_json_round_trip(self):
        config = ServingConfig(
            mechanism="hub-set",
            eps=0.5,
            delta=1e-6,
            weight_bound=3.0,
            shards=4,
            cache_size=128,
            tenant="navigation",
            audit_log="audit.jsonl",
            event_log="events.jsonl",
            profile=True,
        )
        restored = ServingConfig.from_json(config.to_json())
        assert restored == config
        # Every field is set above: the config holds these ten, and
        # the document is version 3.
        assert [f.name for f in dataclasses.fields(ServingConfig)] == [
            "mechanism", "eps", "delta", "weight_bound", "shards",
            "cache_size", "tenant", "audit_log", "event_log", "profile",
        ]
        assert json.loads(config.to_json())["version"] == 3

    def test_defaults_round_trip(self):
        config = ServingConfig()
        assert ServingConfig.from_json(config.to_json()) == config

    def test_missing_fields_take_defaults(self):
        document = {
            "format": "repro-serving-config",
            "version": 3,
            "eps": 2.0,
        }
        config = ServingConfig.from_json(json.dumps(document))
        assert config.eps == 2.0
        assert config.mechanism == "auto"
        assert config.shards == 1

    def test_missing_eps_rejected(self):
        # A DP budget is never defaulted from a document.
        document = {"format": "repro-serving-config", "version": 3}
        with pytest.raises(GraphError, match="missing keys: eps"):
            ServingConfig.from_json(json.dumps(document))

    def test_boolean_eps_rejected(self):
        # JSON true is not a budget, though Python's bool is an int.
        document = {"format": "repro-serving-config", "version": 3, "eps": True}
        with pytest.raises(GraphError, match="'eps' must be a number, got bool"):
            ServingConfig.from_json(json.dumps(document))

    def test_unknown_fields_rejected(self):
        document = {
            "format": "repro-serving-config",
            "version": 3,
            "epsilon": 2.0,  # typo for eps
        }
        with pytest.raises(GraphError) as excinfo:
            ServingConfig.from_json(json.dumps(document))
        assert "epsilon" in str(excinfo.value)

    def test_wrong_format_and_version_rejected(self):
        with pytest.raises(GraphError):
            ServingConfig.from_json(json.dumps({"format": "other"}))
        with pytest.raises(GraphError):
            ServingConfig.from_json(
                json.dumps(
                    {"format": "repro-serving-config", "version": 99}
                )
            )

    def test_invalid_fields_rejected(self):
        with pytest.raises(PrivacyError):
            ServingConfig(eps=-1.0)
        with pytest.raises(MechanismError):
            ServingConfig(mechanism="quantum")
        with pytest.raises(GraphError):
            ServingConfig(shards=0)
        with pytest.raises(GraphError):
            ServingConfig(cache_size=0)

    def test_with_overrides_revalidates(self):
        config = ServingConfig(eps=1.0)
        assert config.with_overrides(eps=2.0).eps == 2.0
        with pytest.raises(GraphError):
            config.with_overrides(shards=-1)

    def test_budget_property(self):
        config = ServingConfig(eps=0.5, delta=1e-7)
        assert config.budget == PrivacyParams(0.5, 1e-7)


class TestDeploymentArguments:
    """``ServingConfig`` and ``DistanceService`` refuse a weight bound
    or a shard count no deployment means through one check, with a
    library error, before anything is spent."""

    NON_FINITE_OR_NONPOSITIVE = [float("nan"), float("inf"), 0, -1.0]

    @staticmethod
    def _refused(error, match, **arguments):
        ledger = BudgetLedger(PrivacyParams(4.0))
        telemetry = Telemetry().with_audit(AuditLog())
        with pytest.raises(error, match=match):
            DistanceService(
                generators.grid_graph(6, 6), 1.0, Rng(0), ledger=ledger,
                telemetry=telemetry, **arguments,
            )
        assert ledger.records() == []
        assert [r["kind"] for r in telemetry.audit.records()] == [
            "audit.open"
        ]

    @pytest.mark.parametrize(
        "bound", [True, np.True_, *NON_FINITE_OR_NONPOSITIVE], ids=repr
    )
    def test_service_refuses_weight_bound(self, bound):
        # True used to serve as M = 1, NaN to raise a bare ValueError
        # and inf to serve bounded-weight answers such as -112.7.
        self._refused(PrivacyError, "weight bound", weight_bound=bound)

    @pytest.mark.parametrize("shards", [True, np.True_, 2.0, 0, -2], ids=repr)
    def test_service_refuses_shards(self, shards):
        # True used to serve one shard and 2.0 to raise numpy's
        # TypeError.
        self._refused(GraphError, "shard", shards=shards)

    @pytest.mark.parametrize("bound", NON_FINITE_OR_NONPOSITIVE, ids=repr)
    def test_config_refuses_weight_bound(self, bound):
        with pytest.raises(PrivacyError, match="weight bound"):
            ServingConfig(weight_bound=bound)

    def test_numpy_numbers_still_served(self, rng):
        grid = generators.grid_graph(6, 6)
        bounded = DistanceService(grid, 1.0, rng, weight_bound=np.int64(3))
        assert bounded.mechanism == "bounded-weight"
        sharded = DistanceService(grid, 1.0, rng, shards=np.int64(2))
        assert sharded.num_shards == 2


class TestServeFactory:
    def test_unsharded_bit_identical_to_direct_construction(self):
        """The E16 acceptance scenario: serve() with mechanism='auto'
        picks the same mechanism and produces bit-for-bit identical
        query values to the directly-constructed DistanceService."""
        network = grid_road_network(8, 8, Rng(300))
        direct = DistanceService(network.graph, 1.0, Rng(301))
        served = serve(network.graph, ServingConfig(eps=1.0), Rng(301))
        assert isinstance(served, DistanceService)
        assert served.mechanism == direct.mechanism
        pairs = uniform_pairs(network.graph, 200, Rng(302))
        assert served.query_batch(pairs).answers == (
            direct.query_batch(pairs).answers
        )

    def test_sharded_bit_identical_to_direct_construction(self):
        """The E19 acceptance scenario, reduced: a sharded config is
        bit-for-bit the directly-constructed ShardedDistanceService."""
        network = grid_road_network(8, 8, Rng(310))
        direct = ShardedDistanceService(
            network.graph, 1.0, Rng(311), shards=2, mechanism="hub-set"
        )
        served = serve(
            network.graph,
            ServingConfig(eps=1.0, shards=2, mechanism="hub-set"),
            Rng(311),
        )
        assert isinstance(served, ShardedDistanceService)
        assert served.mechanism == direct.mechanism
        pairs = uniform_pairs(network.graph, 200, Rng(312))
        assert served.query_batch(pairs).answers == (
            direct.query_batch(pairs).answers
        )

    def test_config_json_round_trip_serves_identically(self):
        """Round-tripping the config through JSON changes nothing
        about the server it describes (same seed, same answers)."""
        network = grid_road_network(6, 6, Rng(320))
        config = ServingConfig(eps=0.5, shards=2)
        restored = ServingConfig.from_json(config.to_json())
        a = serve(network.graph, config, Rng(321))
        b = serve(network.graph, restored, Rng(321))
        pairs = uniform_pairs(network.graph, 100, Rng(322))
        assert a.query_batch(pairs).answers == (
            b.query_batch(pairs).answers
        )

    def test_auto_matches_select_mechanism(self, rng):
        from repro.mechanisms import auto_select_mechanism

        grid = generators.grid_graph(5, 5)
        service = serve(grid, ServingConfig(eps=1.0), rng)
        assert service.mechanism == auto_select_mechanism(
            grid, PrivacyParams(1.0)
        )

    def test_forced_mechanism_and_weight_bound(self, rng):
        grid = generators.grid_graph(4, 4)
        service = serve(
            grid,
            ServingConfig(
                eps=1.0, mechanism="bounded-weight", weight_bound=1.0
            ),
            rng,
        )
        assert service.mechanism == "bounded-weight"

    def test_explicit_plan_overrides_partitioning(self, rng):
        from repro.serving import partition_graph

        network = grid_road_network(6, 6, Rng(330))
        plan = partition_graph(network.graph, 3, seed=5)
        service = serve(
            network.graph,
            ServingConfig(eps=1.0, shards=3),
            rng,
            plan=plan,
        )
        assert service.plan is plan

    def test_plan_disagreeing_with_config_shards_rejected(self, rng):
        """Regression: a multi-shard config and an explicit plan that
        disagree must raise, not silently trust the plan."""
        from repro.serving import partition_graph

        network = grid_road_network(6, 6, Rng(331))
        plan = partition_graph(network.graph, 2, seed=5)
        with pytest.raises(GraphError, match="disagrees"):
            serve(
                network.graph,
                ServingConfig(eps=1.0, shards=4),
                rng,
                plan=plan,
            )


class TestEpochPolicy:
    """The server rotates the ledger it owns on every refresh; a
    ledger it is handed is never rotated, which pins the epoch."""

    def test_rotate_policy_resets_budget_each_refresh(self, rng):
        grid = generators.grid_graph(3, 3)
        service = serve(grid, ServingConfig(eps=1.0), rng)
        service.refresh()
        service.refresh()
        assert service.epoch == 2
        assert service.stats.epochs_built == 3

    def test_fixed_policy_fails_closed_when_exhausted(self, rng):
        grid = generators.grid_graph(3, 3)
        config = ServingConfig(eps=1.0)
        service = serve(
            grid, config, rng, ledger=BudgetLedger(config.budget)
        )
        # The epoch never turns: a second full-budget rebuild busts
        # the per-epoch cap and is refused before drawing noise.
        with pytest.raises(BudgetExceededError):
            service.refresh()
        assert service.epoch == 0

    def test_shared_ledger_wins_over_policy(self, rng):
        ledger = BudgetLedger(PrivacyParams(2.0))
        grid = generators.grid_graph(3, 3)
        service = serve(
            grid,
            ServingConfig(eps=1.0),
            rng,
            ledger=ledger,
        )
        service.refresh()  # shared ledger: no rotation
        assert ledger.epoch == 0
        assert len(ledger.records()) == 2


class TestServingSurface:
    def test_both_shapes_are_the_one_front(self, rng):
        network = grid_road_network(6, 6, Rng(340))
        unsharded = serve(network.graph, ServingConfig(eps=1.0), rng)
        sharded = serve(
            network.graph,
            ServingConfig(eps=1.0, shards=2),
            rng.spawn(),
        )
        for server in (unsharded, sharded):
            assert isinstance(server, DistanceService)

    def test_shared_stat_counter_names(self, rng):
        """The satellite fix: both service shapes expose the same
        counters (num_queries, cache_hits, epoch) — no consumer
        special-cases shards."""
        network = grid_road_network(6, 6, Rng(341))
        for shards in (1, 2):
            server = serve(
                network.graph,
                ServingConfig(eps=1.0, shards=shards),
                rng.spawn(),
            )
            server.query((0, 0), (5, 5))
            server.query((5, 5), (0, 0))  # canonical-pair cache hit
            server.query_batch([((0, 0), (1, 1))])
            stats = server.stats
            assert stats.num_queries == 3
            assert stats.point_queries == 2
            assert stats.cache_hits == 1
            assert server.epoch == 0
            snapshot = stats.as_dict()
            assert snapshot["num_queries"] == 3
            assert snapshot["cache_hits"] == 1

    def test_simulate_consumes_shared_stats(self):
        for shards in (1, 2):
            report = replay_rush_hour(
                Rng(55),
                ServingConfig(eps=1.0, shards=shards),
                rows=5,
                cols=5,
                epochs=1,
                queries_per_epoch=30,
            )
            assert report.server_stats["num_queries"] == 30
            assert "cache_hits" in report.server_stats

    def test_simulate_accepts_a_config(self):
        report = replay_rush_hour(
            Rng(56),
            rows=5,
            cols=5,
            epochs=1,
            queries_per_epoch=25,
            config=ServingConfig(eps=2.0, shards=2),
        )
        assert report.total_queries == 25
        assert report.eps == 2.0
        assert report.mechanism.startswith("sharded(2x")

    def test_dropped_knobs_are_unknown_keywords(self, rng):
        # Each stays reachable another way: a pinned epoch through
        # ledger=, a flight recorder or no telemetry through
        # telemetry=, another partition through plan=, and the
        # replay's budget and shape through its config.
        grid = generators.grid_graph(3, 3)
        dropped = [
            (
                ServingConfig,
                ("epoch_policy", "relay_fraction", "partition_seed",
                 "telemetry", "flight_recorder", "flight_threshold_seconds"),
            ),
            (
                lambda **kw: DistanceService(grid, 1.0, rng, **kw),
                ("relay_fraction", "partition_seed"),
            ),
            (
                lambda **kw: ShardedDistanceService(
                    grid, 1.0, rng, shards=2, **kw
                ),
                ("relay_fraction", "partition_seed"),
            ),
            (
                lambda **kw: replay_rush_hour(rng, **kw),
                ("eps", "delta", "weight_bound", "mechanism", "shards",
                 "audit_log", "event_log"),
            ),
        ]
        for build, names in dropped:
            for name in names:
                with pytest.raises(TypeError, match=name):
                    build(**{name: None})


class TestBoundedCache:
    def test_cache_size_bounds_the_service_cache(self, rng):
        grid = generators.grid_graph(4, 4)
        service = serve(
            grid, ServingConfig(eps=1.0, cache_size=5), rng
        )
        vertices = list(grid.vertices())
        answers = {}
        for v in vertices[1:12]:
            answers[v] = service.query(vertices[0], v)
        assert len(service._cache) <= 5
        # Evicted answers recompute identically (post-processing of an
        # immutable synopsis).
        for v, value in answers.items():
            assert service.query(vertices[0], v) == value

    def test_lru_eviction_order(self):
        cache = BoundedCache(2)
        cache[("a", "b")] = 1.0
        cache[("a", "c")] = 2.0
        cache[("a", "b")]  # touch: ("a", "c") is now LRU
        cache[("a", "d")] = 3.0
        assert ("a", "b") in cache
        assert ("a", "c") not in cache
        assert len(cache) == 2

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GraphError):
            BoundedCache(0)
