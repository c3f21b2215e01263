"""CSR compilation: vertex/index mapping, caching, re-weighting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Rng, WeightedGraph
from repro.engine import CSRGraph, kernels
from repro.exceptions import EngineError, VertexNotFoundError, WeightError
from repro.graphs import generators


class TestMapping:
    def test_indices_follow_insertion_order(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        assert [csr.index_of(v) for v in triangle.vertices()] == [0, 1, 2]
        assert csr.vertices == (0, 1, 2)

    def test_round_trip_hashable_vertices(self):
        # Vertices need not be ints: strings, tuples and mixed types
        # must survive the index round trip unchanged.
        labels = ["hub", ("grid", 3, 4), "leaf", frozenset({1, 2})]
        graph = WeightedGraph.from_edges(
            [
                (labels[0], labels[1], 1.5),
                (labels[1], labels[2], 2.5),
                (labels[2], labels[3], 3.5),
            ]
        )
        csr = CSRGraph.from_graph(graph)
        for v in labels:
            assert csr.vertex_at(csr.index_of(v)) == v
        assert list(csr.indices_of(labels)) == [
            csr.index_of(v) for v in labels
        ]

    def test_unknown_vertex_raises(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        with pytest.raises(VertexNotFoundError):
            csr.index_of("nope")

    def test_index_out_of_range_raises(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        with pytest.raises(EngineError):
            csr.vertex_at(3)

    def test_arc_arrays_match_adjacency(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        assert csr.n == 3
        assert csr.num_edges == 3
        assert csr.num_arcs == 6  # undirected: two arcs per edge
        for v in triangle.vertices():
            i = csr.index_of(v)
            neighbors = {
                csr.vertex_at(int(u)): w
                for u, w in zip(
                    csr.indices[csr.indptr[i] : csr.indptr[i + 1]],
                    csr.weights[csr.indptr[i] : csr.indptr[i + 1]],
                )
            }
            assert neighbors == dict(triangle.neighbors(v))

    def test_directed_graph_single_arcs(self):
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0)], directed=True
        )
        csr = CSRGraph.from_graph(graph)
        assert csr.num_arcs == 2
        assert csr.directed

    def test_isolated_vertices_compile(self):
        graph = WeightedGraph()
        graph.add_vertex("a")
        graph.add_vertex("b")
        csr = CSRGraph.from_graph(graph)
        assert csr.n == 2 and csr.num_arcs == 0


class TestCache:
    def test_unchanged_graph_returns_same_object(self, grid5):
        assert CSRGraph.from_graph(grid5) is CSRGraph.from_graph(grid5)

    def test_set_weight_reuses_structure(self, grid5):
        before = CSRGraph.from_graph(grid5)
        grid5.set_weight((0, 0), (0, 1), 7.0)
        after = CSRGraph.from_graph(grid5)
        assert after is not before
        # The cheap path: shared frozen structure, fresh weights.
        assert after.indptr is before.indptr
        assert after.indices is before.indices
        assert 7.0 in after.weights
        assert 7.0 not in before.weights

    def test_add_edge_rebuilds_structure(self, grid5):
        before = CSRGraph.from_graph(grid5)
        grid5.add_edge((0, 0), (4, 4), 0.5)
        after = CSRGraph.from_graph(grid5)
        assert after.indptr is not before.indptr
        assert after.num_edges == before.num_edges + 1

    def test_graph_with_weights_inherits_structure(self, grid5):
        # The per-epoch serving pattern: compile once, then re-weight
        # via WeightedGraph.with_weights each epoch.  The epoch clone
        # must reuse the parent's frozen structure arrays.
        parent_csr = CSRGraph.from_graph(grid5)
        epoch = grid5.with_weights(np.full(grid5.num_edges, 2.5))
        epoch_csr = CSRGraph.from_graph(epoch)
        assert epoch_csr.indptr is parent_csr.indptr
        assert epoch_csr.indices is parent_csr.indices
        assert (epoch_csr.edge_weights == 2.5).all()

    def test_with_weights_without_compile_stays_independent(self, grid5):
        # No compiled parent: the clone builds from scratch, correctly.
        epoch = grid5.with_weights(np.full(grid5.num_edges, 3.0))
        csr = CSRGraph.from_graph(epoch)
        assert (csr.edge_weights == 3.0).all()

    @pytest.mark.parametrize(
        "mutation, drops",
        [
            (lambda g: g.add_vertex(0), None),  # already there
            (lambda g: g.set_weight(0, 1, 9.0), "weights"),
            (lambda g: g.add_edge(1, 0, 9.0), "weights"),  # an overwrite
            (lambda g: g.add_vertex("new"), "topology"),
            (lambda g: g.add_edge(0, "new", 1.0), "topology"),
            (lambda g: g.remove_edge(0, 1), "topology"),
        ],
        ids=[
            "old vertex", "set_weight", "overwrite",
            "add_vertex", "add_edge", "remove_edge",
        ],
    )
    def test_mutations_drop_what_they_make_stale(
        self, triangle, mutation, drops
    ):
        before = CSRGraph.from_graph(triangle)
        structure = triangle._structure
        mutation(triangle)
        assert (triangle._compiled is before) == (drops is None)
        assert (triangle._structure is structure) == (drops != "topology")
        # A weight change recompiles over the same structure, a
        # topology change over a new one.
        after = CSRGraph.from_graph(triangle)
        assert (after.indptr is before.indptr) == (drops != "topology")
        rebuilt = WeightedGraph()
        for v in triangle.vertices():
            rebuilt.add_vertex(v)
        for u, v, weight in triangle.edges():
            rebuilt.add_edge(u, v, weight)
        fresh = CSRGraph.from_graph(rebuilt)
        for name in ("indptr", "indices", "weights", "edge_weights"):
            assert np.array_equal(getattr(after, name), getattr(fresh, name))


class TestReweighting:
    def test_with_weights_aligns_with_edge_list(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        new = csr.with_weights([10.0, 20.0, 30.0])
        expected = dict(zip(triangle.edge_list(), [10.0, 20.0, 30.0]))
        for (u, v), w in expected.items():
            i = csr.index_of(u)
            row = slice(new.indptr[i], new.indptr[i + 1])
            neighbors = dict(zip(new.indices[row], new.weights[row]))
            assert neighbors[csr.index_of(v)] == w

    def test_with_weights_shares_structure(self, grid5):
        csr = CSRGraph.from_graph(grid5)
        new = csr.with_weights(np.ones(grid5.num_edges))
        assert new.indptr is csr.indptr and new.indices is csr.indices

    def test_with_weights_wrong_length_raises(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        with pytest.raises(WeightError):
            csr.with_weights([1.0, 2.0])

    def test_weight_arrays_are_frozen(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        with pytest.raises(ValueError):
            csr.weights[0] = 99.0
        with pytest.raises(ValueError):
            csr.edge_weights[0] = 99.0

    def test_matches_graph_weight_vector(self):
        rng = Rng(7)
        graph = generators.assign_random_weights(
            generators.grid_graph(4, 6), rng, low=0.5, high=3.0
        )
        csr = CSRGraph.from_graph(graph)
        assert np.array_equal(csr.edge_weights, graph.weight_vector())
        assert np.array_equal(
            csr.weights, csr.edge_weights[csr.arc_edge]
        )


def _weighted(graph: WeightedGraph, seed: int) -> WeightedGraph:
    return generators.assign_random_weights(
        graph, Rng(seed), low=0.5, high=3.0
    )


class TestTopologyMemo:
    def test_computed_once_over_unit_weights(self):
        graph = _weighted(generators.grid_graph(4, 5), 1)
        csr = CSRGraph.from_graph(graph)
        seen = []

        def compute(unit):
            seen.append(unit)
            return unit.edge_weights.copy()

        value = csr.topology_memo("probe", compute)
        assert np.array_equal(value, np.ones(csr.num_edges))
        assert seen[0].indptr is csr.indptr
        # Every re-weighting of the structure gets the same object.
        clone = CSRGraph.from_graph(
            graph.with_weights(np.full(graph.num_edges, 2.0))
        )
        assert clone.topology_memo("probe", compute) is value
        assert csr.with_weights(np.ones(csr.num_edges)).topology_memo(
            "probe", compute
        ) is value
        assert len(seen) == 1

    def test_keys_are_separate(self, grid5):
        csr = CSRGraph.from_graph(grid5)
        assert csr.topology_memo(("a", 1), lambda unit: 1) == 1
        assert csr.topology_memo(("a", 2), lambda unit: 2) == 2
        assert csr.topology_memo(("a", 1), lambda unit: 3) == 1

    def test_new_topology_starts_empty(self, grid5):
        CSRGraph.from_graph(grid5).topology_memo("probe", lambda unit: 1)
        grid5.add_edge((0, 0), (4, 4), 0.5)
        csr = CSRGraph.from_graph(grid5)
        assert csr.topology_memo("probe", lambda unit: 2) == 2


class TestWeightsMemo:
    def test_computed_once_per_instance(self, grid5):
        csr = CSRGraph.from_graph(grid5)
        seen = []

        def compute(graph):
            seen.append(graph)
            return graph.weights.sum()

        value = csr.weights_memo("probe", compute)
        assert csr.weights_memo("probe", compute) == value
        assert seen == [csr]
        # A re-weighting is another instance, with its own value.
        doubled = csr.with_weights(2.0 * csr.edge_weights)
        assert doubled.weights_memo("probe", compute) == 2.0 * value
        assert seen == [csr, doubled]

    def test_kernel_checks_and_wraps_each_instance_once(self, monkeypatch):
        # multi_source_distances used to rebuild scipy's matrix and
        # rescan the weights for a negative one on every call.
        pytest.importorskip("scipy")
        built = []
        wrap = kernels._scipy_csr_matrix

        def counting(*args, **kwargs):
            built.append(args)
            return wrap(*args, **kwargs)

        monkeypatch.setattr(kernels, "_scipy_csr_matrix", counting)
        csr = CSRGraph.from_graph(_weighted(generators.grid_graph(4, 5), 2))
        first = kernels.multi_source_distances(csr, [0, 3])
        again = kernels.multi_source_distances(csr, [0, 3], limit=2.0)
        assert len(built) == 1
        assert np.array_equal(first, kernels.relaxation_distances(csr, [0, 3]))
        assert np.array_equal(
            again, kernels.relaxation_distances(csr, [0, 3], limit=2.0)
        )
        negative = csr.with_weights(-csr.edge_weights)
        for _ in range(2):
            with pytest.raises(WeightError):
                kernels.multi_source_distances(negative, [0])
        assert len(built) == 1
