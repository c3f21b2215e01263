"""Bulk re-weighting against the per-edge construction.

``WeightedGraph.with_weights``, ``copy`` and ``weight_vector`` build
in one pass over the edges.  Each must equal what one ``add_vertex``
/ ``add_edge`` call per vertex and edge, then one ``set_weight`` call
per new weight, builds: the same edge order and values, the same
neighbour order in ``_adj`` and ``_pred``, the same errors, and a
clone that compiles by taking over its parent's CSR structure.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pytest

from repro import EdgeNotFoundError, WeightedGraph, WeightError
from repro.engine import CSRGraph


def _scrambled(directed: bool) -> WeightedGraph:
    """Edges in both orientations and out of vertex order, one removed
    and re-added reversed, and an isolated vertex first."""
    graph = WeightedGraph(directed=directed)
    graph.add_vertex("iso")
    edges = [(3, 1), (0, 2), (2, 3), (1, 0), (4, 2), (0, 4), (3, 0)]
    for i, (u, v) in enumerate(edges):
        graph.add_edge(u, v, 1.0 + i)
    if directed:
        graph.add_edge(1, 3, 9.0)
    graph.remove_edge(2, 3)
    graph.add_edge(3, 2, 5.5)
    graph.set_weight(0, 2, 0.25)
    return graph


@pytest.fixture(params=[False, True], ids=["undirected", "directed"])
def graph(request) -> WeightedGraph:
    return _scrambled(request.param)


def _per_edge_copy(graph: WeightedGraph) -> WeightedGraph:
    clone = WeightedGraph(directed=graph.directed)
    for v in graph.vertices():
        clone.add_vertex(v)
    for u, v, weight in graph.edges():
        clone.add_edge(u, v, weight)
    return clone


def _per_edge_with_weights(graph: WeightedGraph, new_weights) -> WeightedGraph:
    clone = _per_edge_copy(graph)
    if isinstance(new_weights, Mapping):
        for (u, v), weight in new_weights.items():
            clone.set_weight(u, v, weight)
    else:
        for key, weight in zip(clone.edge_list(), list(new_weights)):
            clone.set_weight(*key, float(weight))
    return clone


def _layout(graph: WeightedGraph):
    """Everything insertion order shows: edges, then each vertex's
    successors and predecessors, in dict order."""
    return (
        graph.directed,
        list(graph._edges.items()),
        [(v, list(nbrs.items())) for v, nbrs in graph._adj.items()],
        [(v, list(nbrs.items())) for v, nbrs in graph._pred.items()],
    )


def _vector(graph: WeightedGraph) -> np.ndarray:
    return np.linspace(0.5, 3.0, graph.num_edges)


class TestEqualsPerEdgePath:
    def test_copy(self, graph):
        assert _layout(graph.copy()) == _layout(_per_edge_copy(graph))

    @pytest.mark.parametrize("kind", ["array", "list", "generator"])
    def test_vector(self, graph, kind):
        values = _vector(graph)
        given = {
            "array": values,
            "list": values.tolist(),
            "generator": (float(x) for x in values),
        }[kind]
        assert _layout(graph.with_weights(given)) == _layout(
            _per_edge_with_weights(graph, values)
        )

    def test_mapping_either_orientation(self, graph):
        # Undirected, every key is the reverse of its canonical edge;
        # directed, (1, 3) is an edge of its own beside (3, 1).
        mapping = {(3, 2): 7.0, (0, 2): 8.0, (1, 3): 6.5}
        if not graph.directed:
            mapping = {(2, 3): 7.0, (2, 0): 8.0, (1, 3): 6.5}
        got = graph.with_weights(mapping)
        assert _layout(got) == _layout(_per_edge_with_weights(graph, mapping))
        assert got.weight(3, 2) == 7.0

    def test_undirected_pred_aliases_adj(self):
        clone = _scrambled(False).with_weights({(0, 1): 2.0})
        assert clone._pred is clone._adj

    def test_clone_is_independent(self, graph):
        before = _layout(graph)
        clone = graph.with_weights(_vector(graph))
        clone.set_weight(0, 4, 99.0)
        clone.add_edge("iso", 0, 1.0)
        assert _layout(graph) == before
        assert all(clone._adj[v] is not graph._adj[v] for v in graph._adj)

    def test_weight_vector(self, graph):
        expected = np.asarray(list(_per_edge_copy(graph)._edges.values()))
        got = graph.weight_vector()
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(got, graph.weight_vector(graph.edge_list()))


class TestErrors:
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length(self, graph, delta):
        values = np.ones(graph.num_edges + delta)
        with pytest.raises(WeightError):
            graph.with_weights(values)
        with pytest.raises(WeightError):
            graph.with_weights(values.tolist())

    def test_not_a_vector(self, graph):
        with pytest.raises(WeightError):
            graph.with_weights(np.ones((graph.num_edges, 1)))

    def test_unknown_mapping_key(self, graph):
        before = _layout(graph)
        with pytest.raises(EdgeNotFoundError):
            graph.with_weights({(0, 2): 1.0, (0, 99): 1.0})
        assert _layout(graph) == before

    def test_reversed_key_on_directed_graph(self):
        graph = _scrambled(True)
        with pytest.raises(EdgeNotFoundError):
            graph.with_weights({(2, 0): 1.0})


class TestCompiledHandover:
    def test_clone_takes_parent_structure(self, graph):
        parent = CSRGraph.from_graph(graph)
        values = _vector(graph)
        csr = CSRGraph.from_graph(graph.with_weights(values))
        assert csr.indptr is parent.indptr
        assert csr.indices is parent.indices
        # ... and equals what a per-edge clone compiles from scratch.
        fresh = CSRGraph.from_graph(_per_edge_with_weights(graph, values))
        assert fresh.indptr is not parent.indptr
        assert np.array_equal(csr.indices, fresh.indices)
        assert np.array_equal(csr.weights, fresh.weights)
        assert np.array_equal(csr.edge_weights, values)

    def test_mapping_clone_takes_parent_structure(self, graph):
        parent = CSRGraph.from_graph(graph)
        csr = CSRGraph.from_graph(graph.with_weights({(0, 4): 0.125}))
        assert csr.indptr is parent.indptr
        assert 0.125 in csr.edge_weights
        assert 0.125 not in parent.edge_weights

    def test_uncompiled_parent_hands_nothing_over(self, graph):
        clone = graph.with_weights(_vector(graph))
        assert getattr(clone, "_engine_csr_cache", None) is None
