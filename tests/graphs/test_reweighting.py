"""Bulk re-weighting against the per-edge construction.

``WeightedGraph.with_weights``, ``copy`` and ``weight_vector`` build
in one pass over the edges.  Each must equal what one ``add_vertex``
/ ``add_edge`` call per vertex and edge, then one ``set_weight`` call
per new weight, builds: the same edge order and values, the same
neighbour order in ``_adj`` and ``_pred``, the same errors, and a
clone that compiles by taking over its parent's CSR structure (a copy
also takes over its parent's compiled graph).

Every derived graph (``with_weights``, ``copy``, ``subgraph``,
``edge_subgraph``) keeps only its vertex order and edge dict until it
is walked or mutated: what it answers before then, and the adjacency
it builds then, must both equal the per-edge construction's.
"""

from __future__ import annotations

import re
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

    @pytest.mark.parametrize("bad", ["a", "1,5", None, 1j], ids=repr)
    def test_value_float_cannot_read(self, graph, bad):
        # These used to leak float()'s ValueError or TypeError.
        m = graph.num_edges
        edge = graph.edge_list()[m // 2]
        for weights in (
            [1.0] * (m - 1) + [bad],
            np.asarray([bad] * m, dtype=object),
            {edge: bad},
        ):
            with pytest.raises(WeightError, match=re.escape(repr(bad))):
                graph.with_weights(weights)

    def test_values_float_reads_are_read_as_before(self, graph):
        m = graph.num_edges
        clone = graph.with_weights(["2.5", True] + [np.int64(3)] * (m - 2))
        assert clone.weight_vector().tolist() == [2.5, 1.0] + [3.0] * (m - 2)
        assert np.array_equal(
            graph.with_weights(np.asarray(["0.5"] * m)).weight_vector(),
            np.full(m, 0.5),
        )


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
        assert clone._structure is None and clone._compiled is None
        csr = CSRGraph.from_graph(clone)
        # ... and the clone's own compile stays its own.
        assert graph._structure is None and graph._compiled is None
        assert CSRGraph.from_graph(graph).indptr is not csr.indptr

    @pytest.mark.parametrize("kind", ["int array", "list", "mapping"])
    def test_other_weights_regather(self, graph, kind):
        parent = CSRGraph.from_graph(graph)
        values = np.arange(1, graph.num_edges + 1)
        given = {
            "int array": values,
            "list": values.tolist(),
            "mapping": dict(zip(graph.edge_list(), values.tolist())),
        }[kind]
        clone = graph.with_weights(given)
        csr = CSRGraph.from_graph(clone)
        assert csr.indptr is parent.indptr
        assert np.array_equal(csr.edge_weights, values.astype(float))

    def test_copy_shares_the_compiled_graph(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert CSRGraph.from_graph(graph.copy()) is csr

    @pytest.mark.parametrize("mutated", ["copy", "parent"])
    @pytest.mark.parametrize(
        "mutation",
        [
            lambda graph, u, v: graph.set_weight(u, v, 99.0),
            lambda graph, u, v: graph.add_edge("new", u, 1.0),
        ],
        ids=["set_weight", "add_edge"],
    )
    def test_copy_mutation_leaves_the_other_compiled(
        self, graph, mutated, mutation
    ):
        csr = CSRGraph.from_graph(graph)
        weights = csr.edge_weights.tolist()
        clone = graph.copy()
        target, other = (clone, graph) if mutated == "copy" else (graph, clone)
        mutation(target, *graph.edge_list()[0])
        assert CSRGraph.from_graph(other) is csr
        assert csr.edge_weights.tolist() == weights
        # The mutated graph compiles what a per-edge build of it does,
        # over the shared structure only when its topology is unchanged.
        changed = CSRGraph.from_graph(target)
        fresh = CSRGraph.from_graph(_per_edge_copy(target))
        assert (changed.indptr is csr.indptr) == ("new" not in target)
        for name in ("indptr", "indices", "weights", "edge_weights"):
            assert np.array_equal(getattr(changed, name), getattr(fresh, name))


def _built(directed: bool, vertices, edges) -> WeightedGraph:
    """One ``add_vertex`` per vertex, then one ``add_edge`` per
    ``(u, v, weight)``, in order."""
    graph = WeightedGraph(directed=directed)
    for v in vertices:
        graph.add_vertex(v)
    for u, v, weight in edges:
        graph.add_edge(u, v, weight)
    return graph


def _reweighted(graph: WeightedGraph, values) -> WeightedGraph:
    return _built(
        graph.directed,
        graph.vertices(),
        [(u, v, w) for (u, v), w in zip(graph.edge_list(), values)],
    )


def _derive(kind: str, graph: WeightedGraph):
    """``(derived, reference)``: a graph derived from ``graph`` by
    ``kind``, and the same graph built edge by edge."""
    values = _vector(graph)
    if kind in ("array", "list", "generator"):
        given = {
            "array": values,
            "list": values.tolist(),
            "generator": (float(x) for x in values),
        }[kind]
        return graph.with_weights(given), _reweighted(graph, values)
    if kind == "mapping":
        mapping = {(3, 2): 7.0, (0, 2): 8.0, (1, 3): 6.5}
        if not graph.directed:
            mapping = {(2, 3): 7.0, (2, 0): 8.0, (1, 3): 6.5}
        merged = graph.weights()
        for (u, v), weight in mapping.items():
            merged[graph.edge_key(u, v)] = weight
        return graph.with_weights(mapping), _reweighted(
            graph, merged.values()
        )
    if kind == "chain":
        # Re-weighted twice: the first clone has not built adjacency,
        # so the second shares its vertex order.
        clone = graph.with_weights(values).with_weights(2.0 * values)
        return clone, _reweighted(graph, 2.0 * values)
    if kind == "copy":
        return graph.copy(), _reweighted(graph, graph.weight_vector())
    keep = {0, 2, 3, 4, "iso"}
    if kind == "subgraph":
        return graph.subgraph(keep), _built(
            graph.directed,
            [v for v in graph.vertices() if v in keep],
            [(u, v, w) for u, v, w in graph.edges() if {u, v} <= keep],
        )
    assert kind == "edge_subgraph"
    vertices = [3, "iso", 4, 0, 2]
    edges = graph.edge_list()
    positions = [
        e for e, (u, v) in enumerate(edges) if {u, v} <= keep
    ][::-1]
    weights = graph.weight_vector()
    return graph.edge_subgraph(vertices, positions), _built(
        graph.directed,
        vertices,
        [(*edges[e], weights[e]) for e in positions],
    )


#: Each mutation on its own, as the first thing done to a derived
#: graph whose adjacency is not built yet.
MUTATIONS = {
    "set_weight": lambda graph, u, v: graph.set_weight(u, v, 99.0),
    "remove_edge": lambda graph, u, v: graph.remove_edge(u, v),
    "add_vertex": lambda graph, u, v: graph.add_vertex("new"),
    "add_edge": lambda graph, u, v: graph.add_edge("new", u, 1.0),
}

DERIVED = [
    "array", "list", "generator", "mapping", "chain",
    "copy", "subgraph", "edge_subgraph",
]
REWEIGHTED = {"array", "list", "generator", "mapping", "chain"}


def _adjacency_built(graph: WeightedGraph) -> bool:
    return "_adj" in vars(graph) or "_pred" in vars(graph)


def _unwalked_view(graph: WeightedGraph, probes):
    """Everything a graph answers from its vertices and edges alone."""
    keys = graph.edge_list()
    return (
        graph.directed,
        graph.vertex_list(),
        list(graph.vertices()),
        graph.num_vertices,
        len(graph),
        graph.num_edges,
        [graph.has_vertex(v) for v in probes],
        [v in graph for v in probes],
        [
            (graph.has_edge(u, v), graph.has_edge(v, u))
            for u in probes
            for v in probes
        ],
        keys,
        list(graph.weights().items()),
        list(graph.edges()),
        graph.weight_vector().tolist(),
        graph.weight_vector(keys[::-1]).tolist(),
    )


@pytest.mark.parametrize("kind", DERIVED)
class TestDerivedGraphs:
    def test_unwalked_answers_equal_per_edge(self, graph, kind):
        derived, reference = _derive(kind, graph)
        probes = graph.vertex_list() + ["absent"]
        assert _unwalked_view(derived, probes) == _unwalked_view(
            reference, probes
        )
        assert not _adjacency_built(derived)

    def test_compiles_without_adjacency(self, graph, kind):
        parent = CSRGraph.from_graph(graph)
        derived, reference = _derive(kind, graph)
        csr = CSRGraph.from_graph(derived)
        fresh = CSRGraph.from_graph(reference)
        assert not _adjacency_built(derived)
        # A re-weighted clone or a copy takes over its parent's
        # structure; a subgraph compiles its own.
        assert (csr.indptr is parent.indptr) == (
            kind in REWEIGHTED or kind == "copy"
        )
        assert csr.vertices == fresh.vertices
        for name in ("indptr", "indices", "weights", "edge_weights"):
            assert np.array_equal(getattr(csr, name), getattr(fresh, name))

    def test_walk_builds_per_edge_layout(self, graph, kind):
        derived, reference = _derive(kind, graph)
        start = next(iter(derived.vertices()))
        assert list(derived.neighbors(start)) == list(
            reference.neighbors(start)
        )
        assert _adjacency_built(derived)
        assert _layout(derived) == _layout(reference)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_builds_per_edge_layout(self, graph, kind, mutation):
        derived, reference = _derive(kind, graph)
        u, v = derived.edge_list()[0]
        for target in (derived, reference):
            MUTATIONS[mutation](target, u, v)
        assert _layout(derived) == _layout(reference)

    def test_mutation_leaves_parent(self, graph, kind):
        parent = graph.with_weights(_vector(graph))
        before = _layout(_reweighted(graph, _vector(graph)))
        parent_vertices = parent.vertex_list()
        derived, _ = _derive(kind, parent)
        u, v = derived.edge_list()[0]
        for mutate in MUTATIONS.values():
            mutate(derived, u, v)
        assert "new" in derived
        assert parent.vertex_list() == parent_vertices
        assert not _adjacency_built(parent)
        assert _layout(parent) == before
        # ... and the other way round: a mutated parent, built edge by
        # edge or derived, leaves the graph derived from it.
        for source in (graph, graph.with_weights(_vector(graph))):
            derived, reference = _derive(kind, source)
            source.add_vertex("other")
            source.remove_edge(*source.edge_list()[-1])
            assert "other" not in derived
            assert _layout(derived) == _layout(reference)
