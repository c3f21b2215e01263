"""Seeded randomized equivalence: the public shortest-path functions
against the dict-based reference ``_dijkstra_reference``, asserted
*exactly*.

``all_pairs_dijkstra`` is always one CSR multi-source sweep;
``dijkstra`` runs the CSR kernel from |E| = 2048 and the reference
below that.  Either way the distances must be the reference's bits —
both compute minima over left-associated floating-point path sums —
so every check here is equality, never a tolerance.  The graph
families are small, so their single-source cases force the CSR path
(the ``csr_path`` fixture lowers the threshold to 0); the size-rule
cases build graphs on each side of the threshold and keep the rule
as it is, with fractional weights.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import Rng, WeightedGraph
from repro.algorithms import shortest_paths
from repro.algorithms.shortest_paths import (
    _dijkstra_reference,
    all_pairs_dijkstra,
    dijkstra,
    dijkstra_path,
)
from repro.engine import CSRGraph, kernels
from repro.exceptions import EngineError, VertexNotFoundError, WeightError
from repro.graphs import generators

SEED = 999331


def _integer_weights(graph: WeightedGraph, rng: Rng) -> WeightedGraph:
    return graph.with_weights(
        [float(rng.integer(1, 20)) for _ in range(graph.num_edges)]
    )


def _random_sparse(rng: Rng) -> WeightedGraph:
    return _integer_weights(
        generators.erdos_renyi_graph(40, 0.08, rng), rng
    )


def _grid(rng: Rng) -> WeightedGraph:
    return _integer_weights(generators.grid_graph(7, 9), rng)


def _tree(rng: Rng) -> WeightedGraph:
    return _integer_weights(generators.random_tree(50, rng), rng)


def _disconnected(rng: Rng) -> WeightedGraph:
    # Two sparse components plus an isolated vertex.
    graph = _integer_weights(
        generators.erdos_renyi_graph(20, 0.15, rng), rng
    )
    other = _integer_weights(
        generators.erdos_renyi_graph(15, 0.2, rng), rng
    )
    for u, v, w in other.edges():
        graph.add_edge(("b", u), ("b", v), w)
    graph.add_vertex("isolated")
    return graph


FAMILIES = [_random_sparse, _grid, _tree, _disconnected]


def _reference_all_pairs(graph, sources=None):
    chosen = graph.vertex_list() if sources is None else sources
    return {s: _dijkstra_reference(graph, s)[0] for s in chosen}


def _assert_parents(graph, source, distances, parents):
    """The parent map covers exactly the settled vertices but the
    source, and each parent's distance plus the connecting weight is
    the vertex's own, bit for bit."""
    assert distances[source] == 0.0
    assert set(parents) == set(distances) - {source}
    for v, d in distances.items():
        if v != source:
            p = parents[v]
            assert distances[p] + graph.weight(p, v) == d


@pytest.fixture
def csr_path(monkeypatch):
    """Send every single-source call down the CSR path, whatever its
    size."""
    monkeypatch.setattr(shortest_paths, "_SSSP_CSR_MIN_EDGES", 0)


@pytest.fixture
def ran(monkeypatch):
    """How often each single-source implementation ran: the dict-based
    search and the CSR kernel, counted as ``dijkstra`` calls them."""
    calls = Counter()

    def spy(name):
        original = getattr(shortest_paths, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(shortest_paths, name, counted)

    for name in ("_dijkstra_reference", "sssp_dijkstra"):
        spy(name)
    return calls


@pytest.mark.usefixtures("csr_path")
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("trial", range(3))
class TestCSRPathEquivalence:
    def _graph(self, family, trial):
        return family(Rng(SEED + 101 * trial))

    def test_all_pairs_exact(self, family, trial):
        graph = self._graph(family, trial)
        assert all_pairs_dijkstra(graph) == _reference_all_pairs(graph)

    def test_sssp_exact(self, family, trial):
        graph = self._graph(family, trial)
        source = graph.vertex_list()[0]
        distances, parents = dijkstra(graph, source)
        assert distances == _dijkstra_reference(graph, source)[0]
        # The parents may differ from the reference's under ties, but
        # each must lie on an optimal path.
        _assert_parents(graph, source, distances, parents)

    def test_sssp_early_exit_exact(self, family, trial):
        graph = self._graph(family, trial)
        source = graph.vertex_list()[0]
        reached = list(_dijkstra_reference(graph, source)[0])
        target = reached[len(reached) // 2]
        distances, parents = dijkstra(graph, source, target=target)
        # Identical settled sets, not just the target's distance.
        assert distances == _dijkstra_reference(graph, source, target)[0]
        _assert_parents(graph, source, distances, parents)

    def test_sources_subset_exact(self, family, trial):
        graph = self._graph(family, trial)
        sources = graph.vertex_list()[::5]
        assert all_pairs_dijkstra(graph, sources=sources) == (
            _reference_all_pairs(graph, sources)
        )

    def test_relaxation_fallback_exact(self, family, trial):
        # The scipy-free kernel must agree even when scipy is present.
        graph = self._graph(family, trial)
        reference = _reference_all_pairs(graph)
        csr = CSRGraph.from_graph(graph)
        matrix = kernels.relaxation_distances(csr, range(csr.n))
        inf = float("inf")
        for i, s in enumerate(csr.vertices):
            row = {
                csr.vertices[j]: d
                for j, d in enumerate(matrix[i].tolist())
                if d != inf
            }
            assert row == reference[s]

    @pytest.mark.parametrize("quantile", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize(
        "sweep",
        [kernels.multi_source_distances, kernels.relaxation_distances],
        ids=["dispatch", "relaxation"],
    )
    def test_limited_sweep_exact(self, family, trial, quantile, sweep):
        # Within the limit (inclusive) a limited sweep keeps the
        # unlimited value bit for bit; beyond it every entry is inf.
        # The limit is an attained distance, so the boundary is hit.
        graph = self._graph(family, trial)
        csr = CSRGraph.from_graph(graph)
        full = kernels.multi_source_distances(csr, range(csr.n))
        finite = np.sort(full[np.isfinite(full)])
        limit = float(finite[int(quantile * (finite.size - 1))])
        limited = sweep(csr, range(csr.n), limit=limit)
        within = full <= limit
        assert (full == limit).any()
        assert np.array_equal(limited[within], full[within])
        assert np.isinf(limited[~within]).all()


# ----------------------------------------------------------------------
# The single-source size rule, from both sides of the threshold, and
# the all-pairs sweep on small and large graphs
# ----------------------------------------------------------------------

#: ``(|E|, implementation dijkstra must run)``.
SSSP_SIDES = [(2047, "_dijkstra_reference"), (2048, "sssp_dijkstra")]

#: |V| of the all-pairs graphs: small enough that the sweep's setup
#: outweighs the search, and large enough that it does not.
APSP_SIZES = [9, 32]

#: Vertices of the single-source graphs (|E| ~ 5 |V|).
SSSP_VERTICES = 400

#: The last vertices of a directed size-rule graph get no incoming
#: arcs, so nothing else reaches them.
UNREACHABLE = 3


def _sized_graph(vertices, edges, seed, directed=False):
    """A random graph with exactly ``vertices`` vertices and ``edges``
    edges, fractional weights in [0.5, 3).  Directed graphs leave the
    last :data:`UNREACHABLE` vertices without incoming arcs."""
    rng = Rng(seed)
    graph = WeightedGraph(directed=directed)
    for v in range(vertices):
        graph.add_vertex(v)
    heads = vertices - UNREACHABLE if directed else vertices
    while graph.num_edges < edges:
        u, v = rng.integer(0, vertices), rng.integer(0, heads)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(0.5, 3.0))
    return graph


def _unreachable(graph):
    return set(graph.vertex_list()[-UNREACHABLE:])


def test_threshold_is_the_parents_default():
    assert shortest_paths._SSSP_CSR_MIN_EDGES == 2048


@pytest.mark.parametrize("edges, implementation", SSSP_SIDES)
class TestSingleSourceSizeRule:
    def _graph(self, edges, directed=False):
        return _sized_graph(
            SSSP_VERTICES, edges, SEED + edges, directed=directed
        )

    def test_runs_the_sized_implementation(self, edges, implementation, ran):
        dijkstra(self._graph(edges), 0)
        assert ran == {implementation: 1}

    def test_distances_and_parents_exact(self, edges, implementation):
        graph = self._graph(edges)
        distances, parents = dijkstra(graph, 0)
        assert distances == _dijkstra_reference(graph, 0)[0]
        assert len(distances) == graph.num_vertices
        _assert_parents(graph, 0, distances, parents)

    def test_early_exit_target_exact(self, edges, implementation):
        graph = self._graph(edges)
        reached = list(_dijkstra_reference(graph, 0)[0])
        target = reached[len(reached) // 2]
        distances, parents = dijkstra(graph, 0, target=target)
        assert distances == _dijkstra_reference(graph, 0, target)[0]
        assert target in distances
        assert len(distances) < graph.num_vertices
        _assert_parents(graph, 0, distances, parents)

    def test_directed_unreachable_exact(self, edges, implementation):
        graph = self._graph(edges, directed=True)
        distances, parents = dijkstra(graph, 0)
        assert distances == _dijkstra_reference(graph, 0)[0]
        assert not _unreachable(graph) & (set(distances) | set(parents))
        _assert_parents(graph, 0, distances, parents)

    def test_negative_weight_raises(self, edges, implementation):
        graph = self._graph(edges)
        neighbor, _ = next(graph.neighbors(0))
        graph.set_weight(0, neighbor, -1.0)
        with pytest.raises(WeightError):
            _dijkstra_reference(graph, 0)
        with pytest.raises(WeightError):
            dijkstra(graph, 0)


@pytest.mark.parametrize("vertices", APSP_SIZES)
class TestAllPairsSweep:
    def _graph(self, vertices, directed=False):
        return _sized_graph(
            vertices, 3 * vertices, SEED + vertices, directed=directed
        )

    def test_distances_exact(self, vertices):
        graph = self._graph(vertices)
        assert all_pairs_dijkstra(graph) == _reference_all_pairs(graph)

    def test_sources_subset_exact(self, vertices):
        graph = self._graph(vertices)
        sources = graph.vertex_list()[::4]
        assert all_pairs_dijkstra(graph, sources=sources) == (
            _reference_all_pairs(graph, sources)
        )

    def test_directed_unreachable_exact(self, vertices):
        graph = self._graph(vertices, directed=True)
        result = all_pairs_dijkstra(graph)
        assert result == _reference_all_pairs(graph)
        unreachable = _unreachable(graph)
        for s, row in result.items():
            assert not (unreachable - {s}) & set(row)

    def test_negative_weight_raises(self, vertices):
        # Checked over every edge before any search, so even an edge
        # no search would scan is refused.
        graph = self._graph(vertices)
        u, v, _ = list(graph.edges())[-1]
        graph.set_weight(u, v, -1.0)
        with pytest.raises(WeightError):
            all_pairs_dijkstra(graph)


def _edgeless(*vertices):
    graph = WeightedGraph()
    for v in vertices:
        graph.add_vertex(v)
    return graph


@pytest.mark.parametrize(
    "graph",
    [
        _edgeless(),
        _edgeless("a"),
        _edgeless("a", "b", "c"),
        WeightedGraph.from_edges([(0, 1, 2.5)], directed=True),
    ],
    ids=["empty", "one-vertex", "edgeless", "one-arc"],
)
def test_all_pairs_degenerate_graphs(graph):
    assert all_pairs_dijkstra(graph) == _reference_all_pairs(graph)
    assert all_pairs_dijkstra(graph, sources=[]) == {}


class TestSemanticsParity:
    @pytest.mark.parametrize("forced", [False, True], ids=["sized", "csr"])
    def test_early_exit_keeps_only_settled_parents(self, forced, monkeypatch):
        # a is reached from s (10) before b settles, but its shortest
        # path runs through b (1 + 1) and it is not settled by then.
        if forced:
            monkeypatch.setattr(shortest_paths, "_SSSP_CSR_MIN_EDGES", 0)
        graph = WeightedGraph.from_edges(
            [("s", "a", 10.0), ("s", "b", 1.0), ("b", "a", 1.0)]
        )
        assert dijkstra(graph, "s", target="b") == (
            {"s": 0.0, "b": 1.0},
            {"b": "s"},
        )

    def test_early_exit_target_matches(self, csr_path):
        graph = _grid(Rng(SEED))
        source, target = (0, 0), (6, 8)
        distances, _ = dijkstra(graph, source, target=target)
        # Identical settled sets, not just the target.
        assert distances == _dijkstra_reference(graph, source, target)[0]

    def test_dijkstra_path_agrees_with_csr_distances(self, csr_path):
        graph = _grid(Rng(SEED + 5))
        path, weight = dijkstra_path(graph, (0, 0), (6, 8))
        assert graph.is_path(path)
        assert graph.path_weight(path) == weight
        assert weight == _dijkstra_reference(graph, (0, 0))[0][(6, 8)]

    @pytest.mark.parametrize("forced", [False, True], ids=["sized", "csr"])
    def test_negative_weight_raises_on_both_paths(
        self, forced, monkeypatch
    ):
        if forced:
            monkeypatch.setattr(shortest_paths, "_SSSP_CSR_MIN_EDGES", 0)
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, -2.0), (0, 2, 1.0)]
        )
        with pytest.raises(WeightError):
            dijkstra(graph, 0)
        with pytest.raises(WeightError):
            all_pairs_dijkstra(graph)

    def test_relaxation_stops_on_a_negative_cycle(self):
        # Weights must be nonnegative; a negative cycle never settles,
        # and the round bound turns that into an error, not a hang.
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 0, -2.0)], directed=True
        )
        with pytest.raises(EngineError):
            kernels.relaxation_distances(CSRGraph.from_graph(graph), [0])

    def test_reference_rejects_unknown_vertex(self):
        graph = generators.path_graph(3)
        with pytest.raises(VertexNotFoundError):
            _dijkstra_reference(graph, "missing")
