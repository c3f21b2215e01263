"""Unit tests for :mod:`repro.mechanisms` — the closed mechanism
catalog and its auto-selection contest."""

from __future__ import annotations

import pytest

from repro import (
    GraphError,
    MechanismError,
    PrivacyParams,
    Rng,
    ServingConfig,
    WeightedGraph,
    auto_select_mechanism,
    available_mechanisms,
    get_mechanism,
)
from repro.algorithms.traversal import is_connected
from repro.apsp import predicted_hub_scale
from repro.core.distance_oracle import all_pairs_noise_scale
from repro.graphs import generators
from repro.mechanisms import (
    HUB_BOUNDED_MIN_VERTICES,
    HUB_MIN_VERTICES,
    HUB_SELECTION_MARGIN,
    MechanismParams,
    registered_mechanisms,
)

#: The catalog in contest order.
CATALOG = (
    "tree",
    "bounded-weight",
    "hub-bounded",
    "all-pairs-basic",
    "all-pairs-advanced",
    "hub-set",
)

#: Releases built outside the catalog: an explicit pair workload and
#: the sharded service's boundary relay.
OUTSIDE_CATALOG = ("single-pair", "boundary-relay")


def legacy_select_mechanism(graph, budget, weight_bound=None):
    """The pre-registry if/elif ladder, frozen verbatim as the
    equivalence reference for the contest."""
    if (
        not graph.directed
        and graph.num_edges == graph.num_vertices - 1
        and is_connected(graph)
    ):
        return "tree"
    if weight_bound is not None:
        if graph.num_vertices >= HUB_BOUNDED_MIN_VERTICES:
            return "hub-bounded"
        return "bounded-weight"
    n = graph.num_vertices
    baseline = (
        "all-pairs-advanced" if budget.delta > 0 else "all-pairs-basic"
    )
    baseline_scale = all_pairs_noise_scale(n, budget.eps, budget.delta)
    if (
        n >= HUB_MIN_VERTICES
        and predicted_hub_scale(n, budget.eps, budget.delta)
        * HUB_SELECTION_MARGIN
        < baseline_scale
    ):
        return "hub-set"
    return baseline


class TestRegistry:
    def test_catalog_is_the_six_tenant_mechanisms(self):
        assert available_mechanisms() == tuple(sorted(CATALOG))
        for name in CATALOG:
            assert get_mechanism(name).name == name

    @pytest.mark.parametrize("name", ("quantum",) + OUTSIDE_CATALOG)
    def test_get_mechanism_unknown_name(self, name):
        with pytest.raises(MechanismError) as excinfo:
            get_mechanism(name)
        assert name in str(excinfo.value)

    def test_registration_order_is_stable(self):
        # Tie-break order: tree first, baselines before hub-set.
        names = tuple(m.name for m in registered_mechanisms())
        assert names == CATALOG


class TestPredictions:
    """Every registered mechanism predicts a positive noise scale."""

    def test_predicted_scales_positive(self, rng):
        graph = generators.grid_graph(6, 6)
        params = MechanismParams(
            budget=PrivacyParams(1.0, 1e-6), weight_bound=2.0
        )
        tree = generators.random_tree(12, rng)
        for mechanism in registered_mechanisms():
            target = tree if mechanism.name == "tree" else graph
            scale = mechanism.predicted_noise_scale(target, params)
            assert scale > 0.0, mechanism.name

    def test_eligibility_requires_each_precondition(self, rng):
        grid = generators.grid_graph(16, 16)
        tree = generators.random_tree(256, rng)
        pure = MechanismParams(budget=PrivacyParams(1.0))
        approx = MechanismParams(budget=PrivacyParams(1.0, 1e-6))
        bounded = MechanismParams(
            budget=PrivacyParams(1.0), weight_bound=2.0
        )

        def eligible(graph, params):
            return {
                m.name
                for m in registered_mechanisms()
                if m.auto_eligible(graph, params)
            }

        # A tree topology admits Algorithm 1 and nothing else; a
        # declared bound hands the regime to the covering families;
        # the advanced baseline needs delta > 0, the basic one none.
        assert eligible(tree, pure) == {"tree"}
        assert eligible(tree, bounded) == {"tree"}
        assert eligible(grid, bounded) == {"bounded-weight"}
        assert eligible(grid, pure) == {"all-pairs-basic", "hub-set"}
        assert eligible(grid, approx) == {"all-pairs-advanced", "hub-set"}

    def test_selection_score_applies_margin(self):
        graph = generators.grid_graph(16, 16)
        params = MechanismParams(budget=PrivacyParams(1.0))
        hub = get_mechanism("hub-set")
        assert hub.selection_score(graph, params) == (
            HUB_SELECTION_MARGIN
            * hub.predicted_noise_scale(graph, params)
        )


class TestAutoSelectionEquivalence:
    """The registry contest makes seeded-identical choices to the
    retired if/elif ladder — the ISSUE's equivalence bar, across
    V in {64, 256, 1024} grid / sparse / tree families."""

    BUDGETS = [
        PrivacyParams(1.0),
        PrivacyParams(0.25),
        PrivacyParams(4.0),
        PrivacyParams(1.0, 1e-6),
        PrivacyParams(0.5, 1e-4),
    ]
    BOUNDS = [None, 2.0]

    def _families(self, v, rng):
        side = int(round(v ** 0.5))
        return [
            generators.grid_graph(side, side),
            generators.erdos_renyi_graph(v, 2.0 / v, rng),
            generators.random_tree(v, rng),
        ]

    @pytest.mark.parametrize("v", [64, 256, 1024])
    def test_equivalence_across_families(self, v):
        rng = Rng(20160501 + v)
        for graph in self._families(v, rng):
            for budget in self.BUDGETS:
                for bound in self.BOUNDS:
                    assert auto_select_mechanism(
                        graph, budget, bound
                    ) == legacy_select_mechanism(
                        graph, budget, bound
                    ), (v, graph.num_edges, budget, bound)

    def test_equivalence_at_road_scale_with_bound(self):
        # The hub-bounded crossover (V >= 4096, bound declared).
        graph = generators.grid_graph(64, 64)
        for budget in (PrivacyParams(1.0), PrivacyParams(1.0, 1e-6)):
            assert auto_select_mechanism(
                graph, budget, 1.0
            ) == legacy_select_mechanism(graph, budget, 1.0)
            assert auto_select_mechanism(graph, budget, 1.0) == (
                "hub-bounded"
            )

    def test_equivalence_on_ladder_corner_cases(self, rng):
        # E = V - 1 without being a tree (the misclassification trap).
        almost = generators.cycle_graph(3)
        almost.add_vertex(99)
        budget = PrivacyParams(1.0)
        assert auto_select_mechanism(
            almost, budget
        ) == legacy_select_mechanism(almost, budget)
        # Tiny graphs (V = 1, V = 2).
        single = generators.path_graph(1)
        pair = generators.path_graph(2)
        for graph in (single, pair):
            for bound in (None, 1.0):
                assert auto_select_mechanism(
                    graph, budget, bound
                ) == legacy_select_mechanism(graph, budget, bound)

    def test_tree_with_declared_bound_still_selects_tree(self, rng):
        tree = generators.random_tree(64, rng)
        assert (
            auto_select_mechanism(tree, PrivacyParams(1.0), 5.0)
            == "tree"
        )


class TestDirectedGraphsRefused:
    """Every release answers unordered pairs, so the catalog refuses a
    directed graph: no mechanism is eligible, and each one's
    pre-spend validation raises."""

    @staticmethod
    def _digraph():
        graph = generators.grid_graph(4, 4)
        directed = WeightedGraph(directed=True)
        for u, v, w in graph.edges():
            directed.add_edge(u, v, w)
            directed.add_edge(v, u, 5.0 * w)
        return directed

    @pytest.mark.parametrize("name", CATALOG)
    def test_validate_and_eligibility_refuse(self, name):
        graph = self._digraph()
        params = MechanismParams(
            budget=PrivacyParams(1.0, 1e-6), weight_bound=5.0
        )
        mechanism = get_mechanism(name)
        assert not mechanism.auto_eligible(graph, params)
        assert not mechanism.auto_eligible(
            graph, MechanismParams(budget=PrivacyParams(1.0))
        )
        with pytest.raises(GraphError, match="directed"):
            mechanism.validate(graph, params)

    @pytest.mark.parametrize("weight_bound", [None, 5.0])
    def test_auto_selection_refuses(self, weight_bound):
        with pytest.raises(MechanismError):
            auto_select_mechanism(
                self._digraph(), PrivacyParams(1.0), weight_bound
            )


class TestServiceIntegration:
    @pytest.mark.parametrize("name", OUTSIDE_CATALOG)
    def test_workload_mechanism_cannot_back_a_service(self, rng, name):
        from repro import DistanceService

        grid = generators.grid_graph(3, 3)
        with pytest.raises(MechanismError):
            DistanceService(grid, 1.0, rng, mechanism=name)
        # The config refuses the name itself, before any service.
        with pytest.raises(MechanismError):
            ServingConfig(mechanism=name)

    def test_forced_build_matches_direct_mechanism_build(self, rng):
        """Forcing a mechanism through the service draws the same
        noise as calling the registry entry directly (same rng
        consumption, same synopsis values)."""
        from repro import DistanceService

        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, Rng(7), mechanism="hub-set")
        direct = get_mechanism("hub-set").build(
            grid, MechanismParams(budget=PrivacyParams(1.0)), Rng(7)
        )
        assert service.query((0, 0), (3, 3)) == direct.distance(
            (0, 0), (3, 3)
        )

    def test_mechanism_error_is_a_privacy_error(self):
        from repro import PrivacyError, ReproError

        assert issubclass(MechanismError, PrivacyError)
        assert issubclass(MechanismError, ReproError)
