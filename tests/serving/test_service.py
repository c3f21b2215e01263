"""Unit tests for :mod:`repro.serving.service` — including the
acceptance scenario: a 10k-query batch served from one synopsis with a
single ledger spend."""

from __future__ import annotations

import pytest

from repro import (
    BudgetExceededError,
    PrivacyParams,
    Rng,
)
from repro.exceptions import PrivacyError
from repro.graphs import generators
from repro.mechanisms import auto_select_mechanism
from repro.serving import BudgetLedger, DistanceService
from repro.serving.synopsis import (
    AllPairsSynopsis,
    BoundedWeightSynopsis,
    TreeSynopsis,
)
from repro.workloads import grid_road_network, uniform_pairs


class TestMechanismSelection:
    def test_tree_topology_selects_tree(self, rng):
        tree = generators.random_tree(10, rng)
        assert auto_select_mechanism(tree, PrivacyParams(1.0)) == "tree"

    def test_weight_bound_selects_covering(self):
        grid = generators.grid_graph(4, 4)
        assert (
            auto_select_mechanism(grid, PrivacyParams(1.0), weight_bound=2.0)
            == "bounded-weight"
        )

    def test_pure_budget_selects_basic(self):
        grid = generators.grid_graph(4, 4)
        assert auto_select_mechanism(grid, PrivacyParams(1.0)) == "all-pairs-basic"

    def test_approx_budget_selects_advanced(self):
        grid = generators.grid_graph(4, 4)
        assert (
            auto_select_mechanism(grid, PrivacyParams(1.0, 1e-6))
            == "all-pairs-advanced"
        )

    def test_e_equals_v_minus_one_but_not_tree(self):
        # A triangle plus an isolated vertex has E = V - 1 without
        # being a tree; selection must not misclassify it.
        graph = generators.cycle_graph(3)
        graph.add_vertex(99)
        assert (
            auto_select_mechanism(graph, PrivacyParams(1.0)) != "tree"
        )


class TestServiceLifecycle:
    def test_synopsis_kind_matches_mechanism(self, rng):
        tree = generators.random_tree(12, rng)
        assert isinstance(
            DistanceService(tree, 1.0, rng).synopsis, TreeSynopsis
        )
        grid = generators.grid_graph(4, 4)
        assert isinstance(
            DistanceService(grid, 1.0, rng).synopsis, AllPairsSynopsis
        )
        assert isinstance(
            DistanceService(grid, 1.0, rng, weight_bound=1.0).synopsis,
            BoundedWeightSynopsis,
        )

    def test_construction_spends_once(self, rng):
        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 0.5, rng)
        records = service.ledger.records()
        assert len(records) == 1
        assert records[0].params == PrivacyParams(0.5)
        assert "all-pairs-basic" in records[0].label

    def test_fails_closed_on_shared_ledger(self, rng):
        ledger = BudgetLedger(PrivacyParams(1.0))
        ledger.spend(PrivacyParams(0.8), tenant="distance-service")
        grid = generators.grid_graph(3, 3)
        with pytest.raises(BudgetExceededError):
            DistanceService(grid, 0.5, rng, ledger=ledger)
        # Refused before building: no synopsis spend was recorded.
        assert len(ledger.records()) == 1

    def test_refresh_rotates_and_respends(self, rng):
        network = grid_road_network(4, 4, rng)
        service = DistanceService(network.graph, 1.0, rng)
        first = service.query((0, 0), (3, 3))
        service.refresh(network.graph.with_weights(
            {e: w + 0.5 for e, w in network.graph.weights().items()}
        ))
        second = service.query((0, 0), (3, 3))
        assert first != second  # fresh noise, fresh weights
        assert service.ledger.epoch == 1
        assert len(service.ledger.records()) == 2
        assert service.stats.epochs_built == 2

    def test_unknown_mechanism_rejected(self, rng):
        grid = generators.grid_graph(3, 3)
        with pytest.raises(PrivacyError):
            DistanceService(grid, 1.0, rng, mechanism="quantum")

    def test_config_error_does_not_burn_budget(self, rng):
        """A data-independent misconfiguration must be caught before
        the ledger spend, so correcting it and retrying works."""
        from repro import GraphError

        ledger = BudgetLedger(PrivacyParams(1.0))
        grid = generators.grid_graph(3, 3)
        with pytest.raises(GraphError):
            DistanceService(
                grid, 1.0, rng, mechanism="bounded-weight", ledger=ledger
            )
        with pytest.raises(PrivacyError):
            DistanceService(
                grid, 1.0, rng, mechanism="all-pairs-advanced",
                ledger=ledger,
            )
        assert ledger.records() == []  # nothing spent on failures
        service = DistanceService(
            grid, 1.0, rng, mechanism="bounded-weight",
            weight_bound=1.0, ledger=ledger,
        )
        assert service.mechanism == "bounded-weight"
        assert len(ledger.records()) == 1

    def test_disconnected_graph_does_not_burn_budget(self, rng):
        """Connectivity is public topology: a disconnected graph is
        rejected before the ledger spend, for every mechanism."""
        from repro import DisconnectedGraphError

        graph = generators.grid_graph(2, 2)
        graph.add_vertex("island")
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(DisconnectedGraphError):
            DistanceService(graph, 1.0, rng, ledger=ledger)
        with pytest.raises(DisconnectedGraphError):
            DistanceService(
                graph, 1.0, rng, weight_bound=1.0, ledger=ledger
            )
        assert ledger.records() == []

    def test_overweight_graph_does_not_burn_budget(self, rng):
        """The weight-bound precondition is checked before the spend,
        mirroring the release's own pre-noise validation."""
        from repro import WeightError

        graph = generators.grid_graph(3, 3).with_weights(
            [5.0] * 12
        )
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(WeightError):
            DistanceService(
                graph, 1.0, rng, weight_bound=1.0, ledger=ledger
            )
        assert ledger.records() == []

    def test_failed_refresh_refuses_to_serve_stale_synopsis(self, rng):
        """If a refresh's rebuild fails, the service must not keep
        answering from the previous epoch's synopsis."""
        from repro import WeightError

        graph = generators.grid_graph(3, 3)
        service = DistanceService(graph, 1.0, rng, weight_bound=1.0)
        assert isinstance(service.query((0, 0), (2, 2)), float)
        bad = graph.with_weights([9.0] * graph.num_edges)
        with pytest.raises(WeightError):
            service.refresh(bad)
        with pytest.raises(PrivacyError):
            service.query((0, 0), (2, 2))
        with pytest.raises(PrivacyError):
            service.query_batch([((0, 0), (2, 2))])
        # A successful refresh restores service.
        service.refresh(graph)
        assert isinstance(service.query((0, 0), (2, 2)), float)

    def test_refresh_does_not_rotate_shared_ledger(self, rng):
        """Refreshing one service must not reset other tenants'
        budgets on a shared ledger; it respends from the remaining
        epoch budget and fails closed when that runs out."""
        ledger = BudgetLedger(PrivacyParams(1.0))
        grid = generators.grid_graph(3, 3)
        service = DistanceService(grid, 0.5, rng, ledger=ledger)
        service.refresh()
        assert ledger.epoch == 0  # shared ledger: epoch unchanged
        assert len(ledger.records()) == 2
        with pytest.raises(BudgetExceededError):
            service.refresh()  # third 0.5 spend exceeds the 1.0 epoch

    def test_forced_mechanism(self, rng):
        grid = generators.grid_graph(3, 3)
        service = DistanceService(
            grid,
            PrivacyParams(1.0, 1e-6),
            rng,
            mechanism="all-pairs-advanced",
        )
        assert service.mechanism == "all-pairs-advanced"


class TestQueryServing:
    def test_point_queries_cached(self, rng):
        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, rng)
        a = service.query((0, 0), (3, 3))
        b = service.query((3, 3), (0, 0))
        assert a == b
        assert service.stats.point_queries == 2
        assert service.stats.cache_hits == 1

    def test_batch_and_point_share_cache(self, rng):
        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, rng)
        value = service.query((0, 0), (2, 2))
        report = service.query_batch([((2, 2), (0, 0))])
        assert report.answers == [value]
        assert report.cache_hits == 1

    def test_acceptance_10k_batch_single_spend(self, rng):
        """The ISSUE acceptance scenario: 10k queries against a 20x20
        grid road network, served from one synopsis, with the ledger
        recording exactly one epoch spend."""
        network = grid_road_network(20, 20, rng)
        service = DistanceService(network.graph, 1.0, rng)
        pairs = uniform_pairs(network.graph, 10_000, rng)
        report = service.query_batch(pairs)
        assert report.num_queries == 10_000
        assert len(report.answers) == 10_000
        assert all(isinstance(a, float) for a in report.answers)
        assert report.queries_per_second > 0
        # Exactly one budget spend, no matter how many queries.
        assert len(service.ledger.records()) == 1
        assert service.ledger.records()[0].params == PrivacyParams(1.0)


class TestHubMechanismSelection:
    """Auto-selection of the improved repro.apsp mechanisms."""

    def test_small_graphs_keep_the_baseline(self, rng):
        small = generators.erdos_renyi_graph(48, 0.1, rng)
        assert (
            auto_select_mechanism(small, PrivacyParams(1.0))
            == "all-pairs-basic"
        )

    def test_large_sparse_graph_selects_hub_set(self, rng):
        graph = generators.erdos_renyi_graph(1024, 2.0 / 1024, rng)
        assert auto_select_mechanism(graph, PrivacyParams(1.0)) == "hub-set"

    def test_selection_threshold_uses_predicted_scales(self):
        # At the margin-adjusted crossover the hub scale must actually
        # undercut the baseline's, not just the vertex-count floor.
        from repro.apsp import predicted_hub_scale
        from repro.mechanisms import (
            HUB_MIN_VERTICES,
            HUB_SELECTION_MARGIN,
        )

        n = 1024
        baseline_scale = n * (n - 1) / 2 / 1.0
        assert n >= HUB_MIN_VERTICES
        assert (
            predicted_hub_scale(n, 1.0) * HUB_SELECTION_MARGIN
            < baseline_scale
        )

    def test_weight_bound_upgrades_at_road_scale(self, rng):
        from repro.mechanisms import HUB_BOUNDED_MIN_VERTICES

        large = generators.grid_graph(64, 64)
        assert large.num_vertices >= HUB_BOUNDED_MIN_VERTICES
        assert (
            auto_select_mechanism(
                large, PrivacyParams(1.0), weight_bound=1.0
            )
            == "hub-bounded"
        )
        small = generators.grid_graph(8, 8)
        assert (
            auto_select_mechanism(
                small, PrivacyParams(1.0), weight_bound=1.0
            )
            == "bounded-weight"
        )

    def test_forced_hub_set_on_small_graph(self, rng):
        from repro.serving import HubSetSynopsis

        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, rng, mechanism="hub-set")
        assert service.mechanism == "hub-set"
        assert isinstance(service.synopsis, HubSetSynopsis)
        assert isinstance(service.query((0, 0), (3, 3)), float)

    def test_forced_hub_bounded_requires_weight_bound(self, rng):
        from repro import GraphError

        ledger = BudgetLedger(PrivacyParams(1.0))
        grid = generators.grid_graph(4, 4)
        with pytest.raises(GraphError):
            DistanceService(
                grid, 1.0, rng, mechanism="hub-bounded", ledger=ledger
            )
        assert ledger.records() == []  # config error burns no budget

    def test_acceptance_1024_sparse_auto_selects_and_roundtrips(self):
        """The ISSUE acceptance scenario: on a seeded 1024-vertex
        sparse graph at eps = 1 the service auto-selects hub-set and
        its synopsis survives a JSON round-trip."""
        from repro import Rng, synopsis_from_json
        from repro.serving import HubSetSynopsis

        rng = Rng(20220406)
        graph = generators.erdos_renyi_graph(1024, 2.0 / 1024, rng)
        service = DistanceService(graph, 1.0, rng)
        assert service.mechanism == "hub-set"
        assert isinstance(service.synopsis, HubSetSynopsis)
        value = service.query(0, 1023)
        restored = synopsis_from_json(service.synopsis.to_json())
        assert isinstance(restored, HubSetSynopsis)
        assert restored.distance(0, 1023) == value
        assert len(service.ledger.records()) == 1
