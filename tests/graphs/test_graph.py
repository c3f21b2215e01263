"""Unit tests for :mod:`repro.graphs.graph`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
    WeightedGraph,
    WeightError,
)


class TestConstruction:
    def test_empty_graph(self):
        g = WeightedGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert not g.directed

    def test_add_vertex_idempotent(self):
        g = WeightedGraph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_add_edge_creates_vertices(self):
        g = WeightedGraph()
        g.add_edge(1, 2, 3.0)
        assert g.has_vertex(1)
        assert g.has_vertex(2)
        assert g.weight(1, 2) == 3.0

    def test_add_edge_returns_canonical_key(self):
        g = WeightedGraph()
        key = g.add_edge("x", "y", 1.0)
        assert key == ("x", "y")
        # Re-adding in the other orientation keeps the canonical key.
        key2 = g.add_edge("y", "x", 2.0)
        assert key2 == ("x", "y")
        assert g.weight("x", "y") == 2.0
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = WeightedGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_from_edges_default_weight(self):
        g = WeightedGraph.from_edges([(0, 1), (1, 2)])
        assert g.weight(0, 1) == 1.0
        assert g.num_edges == 2

    def test_from_edges_with_weights(self):
        g = WeightedGraph.from_edges([(0, 1, 5.0)])
        assert g.weight(0, 1) == 5.0

    def test_from_edges_bad_tuple(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_edges([(0, 1, 2.0, 3.0)])

    def test_remove_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        g.remove_edge(1, 0)  # either orientation works
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_missing_edge(self):
        g = WeightedGraph()
        g.add_vertex(0)
        g.add_vertex(1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)


class TestQueries:
    def test_undirected_symmetry(self, triangle):
        assert triangle.weight(0, 1) == triangle.weight(1, 0)
        assert triangle.has_edge(2, 0)

    def test_neighbors(self, triangle):
        neighbors = dict(triangle.neighbors(1))
        assert neighbors == {0: 1.0, 2: 2.0}

    def test_neighbors_missing_vertex(self, triangle):
        with pytest.raises(VertexNotFoundError):
            list(triangle.neighbors(99))

    def test_adjacent_is_neighbors_without_weights(self, triangle):
        directed = WeightedGraph(directed=True)
        for u, v in ((0, 2), (0, 1), (2, 0), (0, 3)):
            directed.add_edge(u, v, 1.0 + u + v)
        for graph in (triangle, directed):
            for v in graph.vertices():
                assert list(graph.adjacent(v)) == [
                    u for u, _ in graph.neighbors(v)
                ]
        assert list(directed.adjacent(0)) == [2, 1, 3]
        with pytest.raises(VertexNotFoundError):
            triangle.adjacent(99)

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2

    def test_contains_and_len(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3

    def test_edge_key_missing(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge_key(0, 99)
        assert triangle.edge_key(0, 99, missing_ok=True) is None

    def test_repr(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "undirected" in repr(triangle)


class TestDirected:
    def test_directed_edges_one_way(self):
        g = WeightedGraph(directed=True)
        g.add_edge("a", "b", 1.0)
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_predecessors(self):
        g = WeightedGraph(directed=True)
        g.add_edge("a", "b", 1.0)
        g.add_edge("c", "b", 2.0)
        preds = dict(g.predecessors("b"))
        assert preds == {"a": 1.0, "c": 2.0}

    def test_directed_weight_update(self):
        g = WeightedGraph(directed=True)
        g.add_edge("a", "b", 1.0)
        g.set_weight("a", "b", 9.0)
        assert dict(g.predecessors("b"))["a"] == 9.0


class TestWeights:
    def test_set_weight_either_orientation(self, triangle):
        triangle.set_weight(1, 0, 7.5)
        assert triangle.weight(0, 1) == 7.5
        assert dict(triangle.neighbors(0))[1] == 7.5

    def test_weights_dict(self, triangle):
        w = triangle.weights()
        assert w[(0, 1)] == 1.0
        assert len(w) == 3

    def test_weight_vector_default_order(self, triangle):
        np.testing.assert_allclose(
            triangle.weight_vector(), [1.0, 2.0, 4.0]
        )

    def test_weight_vector_custom_order(self, triangle):
        vec = triangle.weight_vector(order=[(2, 0), (0, 1)])
        np.testing.assert_allclose(vec, [4.0, 1.0])

    def test_with_weights_mapping(self, triangle):
        clone = triangle.with_weights({(1, 0): 10.0})
        assert clone.weight(0, 1) == 10.0
        assert triangle.weight(0, 1) == 1.0  # original untouched

    def test_with_weights_sequence(self, triangle):
        clone = triangle.with_weights([7.0, 8.0, 9.0])
        np.testing.assert_allclose(clone.weight_vector(), [7.0, 8.0, 9.0])

    def test_with_weights_wrong_length(self, triangle):
        with pytest.raises(WeightError):
            triangle.with_weights([1.0])

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 7.0

    def test_check_nonnegative(self, triangle):
        triangle.check_nonnegative()
        triangle.set_weight(0, 1, -0.5)
        with pytest.raises(WeightError):
            triangle.check_nonnegative()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_check_nonnegative_refuses_non_finite(self, triangle, bad):
        """Definition 2.1's weights are finite: NaN and +inf are
        refused like a negative weight, naming the edge."""
        triangle.set_weight(1, 2, bad)
        with pytest.raises(WeightError, match=r"edge \(1, 2\)"):
            triangle.check_nonnegative()
        with pytest.raises(WeightError):
            triangle.check_bounded(10.0)

    def test_check_bounded(self, triangle):
        triangle.check_bounded(4.0)
        with pytest.raises(WeightError):
            triangle.check_bounded(3.9)


class TestDerived:
    def test_copy_independence(self, triangle):
        clone = triangle.copy()
        clone.set_weight(0, 1, 99.0)
        assert triangle.weight(0, 1) == 1.0

    def test_copy_preserves_isolated_vertices(self):
        g = WeightedGraph()
        g.add_vertex("lonely")
        assert g.copy().has_vertex("lonely")

    def test_subgraph(self, triangle):
        sub = triangle.subgraph([0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.weight(0, 1) == 1.0

    def test_subgraph_missing_vertex(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.subgraph([0, 42])

    def test_edge_subgraph(self, triangle):
        edges = triangle.edge_list()
        sub = triangle.edge_subgraph([0, 1, 2], [2, 0])
        assert sub.vertex_list() == [0, 1, 2]
        assert sub.edge_list() == [edges[2], edges[0]]
        assert sub.weight(*edges[2]) == triangle.weight(*edges[2])
        # Every edge among the vertices, ascending: the induced subgraph.
        within = [e for e, (u, v) in enumerate(edges) if {u, v} <= {0, 1}]
        assert triangle.edge_subgraph([0, 1], within).edge_list() == (
            triangle.subgraph([0, 1]).edge_list()
        )

    def test_edge_subgraph_refusals(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.edge_subgraph([0, 42], [])
        edge = next(
            e for e, (u, v) in enumerate(triangle.edge_list()) if 2 in (u, v)
        )
        with pytest.raises(GraphError, match="not among its vertices"):
            triangle.edge_subgraph([0, 1], [edge])

    def test_path_weight(self, triangle):
        assert triangle.path_weight([0, 1, 2]) == 3.0

    def test_path_weight_invalid(self, triangle):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(EdgeNotFoundError):
            g.path_weight([0, 1, 2])

    def test_is_path(self, triangle):
        assert triangle.is_path([0, 1, 2])
        assert triangle.is_path([0])
        assert not triangle.is_path([])
        assert not triangle.is_path([0, 99])

    def test_is_path_nonadjacent(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_path([0, 1, 2])
