"""Seeded randomized equivalence: the CSR kernels behind
``all_pairs_dijkstra`` against ``dijkstra``, the dict-based heap
search, asserted *exactly*.

Both compute minima over left-associated floating-point path sums, so
every check here is equality, never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Rng, WeightedGraph
from repro.algorithms.shortest_paths import (
    all_pairs_dijkstra,
    dijkstra,
    dijkstra_path,
)
from repro.engine import CSRGraph, kernels
from repro.exceptions import EngineError, VertexNotFoundError, WeightError
from repro.graphs import generators
from repro.telemetry import PhaseProfiler, Telemetry, use_telemetry

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
    return {s: dijkstra(graph, s)[0] for s in chosen}


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


def _assert_early_exit(graph, source):
    """``dijkstra`` stopped at the middle target of the sweep's row
    settles every vertex closer than the target and none farther, each
    at the sweep's distance bit for bit.  Returns what it settled."""
    row = all_pairs_dijkstra(graph, sources=[source])[source]
    target = sorted(row, key=row.get)[len(row) // 2]
    distances, parents = dijkstra(graph, source, target=target)
    assert distances[target] == row[target]
    assert all(row[v] == d <= row[target] for v, d in distances.items())
    assert {v for v, d in row.items() if d < row[target]} <= set(distances)
    _assert_parents(graph, source, distances, parents)
    return distances


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
        sweep = all_pairs_dijkstra(graph, sources=[source])
        assert distances == sweep[source]
        # Integer weights tie often: any optimal parent will do, but
        # each must lie on an optimal path.
        _assert_parents(graph, source, distances, parents)

    def test_sssp_early_exit_exact(self, family, trial):
        graph = self._graph(family, trial)
        _assert_early_exit(graph, graph.vertex_list()[0])

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
# The single-source search and the all-pairs sweep on small and large
# graphs
# ----------------------------------------------------------------------

#: |E| of the single-source graphs: either side of 2048, where
#: ``dijkstra`` once switched to a CSR search, and the edge counts of
#: the 45x45 and 64x64 grids.
SSSP_EDGES = [2047, 2048, 3960, 8064]

#: Vertices of the single-source graphs (|E| ~ 5 to 20 |V|).
SSSP_VERTICES = 400

#: |V| of the all-pairs graphs: small enough that the sweep's setup
#: outweighs the search, and large enough that it does not.
APSP_SIZES = [9, 32]

#: The last vertices of a directed graph get no incoming arcs, so
#: nothing else reaches them.
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


@pytest.mark.parametrize("edges", SSSP_EDGES)
class TestSingleSourceSizes:
    def _graph(self, edges, directed=False):
        return _sized_graph(
            SSSP_VERTICES, edges, SEED + edges, directed=directed
        )

    def test_runs_one_traced_search(self, edges):
        # One heap search per call at every size, booked to a single
        # engine.sssp phase when a profiler is attached.
        profiler = PhaseProfiler(trace_allocations=False)
        with use_telemetry(Telemetry().with_profiler(profiler)):
            dijkstra(self._graph(edges), 0)
        counts = {name: s.count for name, s in profiler.phases().items()}
        assert counts == {"engine.sssp": 1}

    def test_distances_and_parents_exact(self, edges):
        graph = self._graph(edges)
        distances, parents = dijkstra(graph, 0)
        assert distances == all_pairs_dijkstra(graph, sources=[0])[0]
        assert len(distances) == graph.num_vertices
        _assert_parents(graph, 0, distances, parents)

    def test_early_exit_target_exact(self, edges):
        graph = self._graph(edges)
        distances = _assert_early_exit(graph, 0)
        assert len(distances) < graph.num_vertices

    def test_directed_unreachable_exact(self, edges):
        graph = self._graph(edges, directed=True)
        distances, parents = dijkstra(graph, 0)
        assert distances == all_pairs_dijkstra(graph, sources=[0])[0]
        assert not _unreachable(graph) & (set(distances) | set(parents))
        _assert_parents(graph, 0, distances, parents)

    def test_negative_weight_raises(self, edges):
        graph = self._graph(edges)
        neighbor, _ = next(graph.neighbors(0))
        graph.set_weight(0, neighbor, -1.0)
        with pytest.raises(WeightError):
            dijkstra(graph, 0)


@pytest.mark.parametrize("weights", ["unit", "integer"])
@pytest.mark.parametrize("side", [45, 64])
def test_grid_ties_exact(side, weights):
    # Unit and small integer weights on a grid tie at almost every
    # vertex: the distances are still the sweep's bits, and whichever
    # parent the search keeps lies on an optimal path.
    graph = generators.grid_graph(side)
    if weights == "integer":
        graph = _integer_weights(graph, Rng(SEED + side))
    source = (0, 0)
    distances, parents = dijkstra(graph, source)
    assert distances == all_pairs_dijkstra(graph, sources=[source])[source]
    assert len(distances) == side * side
    _assert_parents(graph, source, distances, parents)


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
    def test_early_exit_keeps_only_settled_parents(self):
        # a is reached from s (10) before b settles, but its shortest
        # path runs through b (1 + 1) and it is not settled by then.
        graph = WeightedGraph.from_edges(
            [("s", "a", 10.0), ("s", "b", 1.0), ("b", "a", 1.0)]
        )
        assert dijkstra(graph, "s", target="b") == (
            {"s": 0.0, "b": 1.0},
            {"b": "s"},
        )

    def test_dijkstra_path_agrees_with_csr_distances(self):
        graph = _grid(Rng(SEED + 5))
        path, weight = dijkstra_path(graph, (0, 0), (6, 8))
        assert graph.is_path(path)
        assert graph.path_weight(path) == weight
        sweep = all_pairs_dijkstra(graph, sources=[(0, 0)])
        assert weight == sweep[(0, 0)][(6, 8)]

    def test_negative_weight_raises_on_both_paths(self):
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
            dijkstra(graph, "missing")


class TestSweepBlockRows:
    """A blocked sweep takes as many source rows as fit in the engine's
    byte budget, and never fewer than one."""

    @pytest.mark.parametrize("vertices", [1, 2, 7, 144, 1000])
    @pytest.mark.parametrize("budget", [0, 1, 8, 100, 8000, 12345, 1 << 20])
    def test_rows_fill_the_budget(self, monkeypatch, vertices, budget):
        monkeypatch.setattr(kernels, "SWEEP_BLOCK_BYTES", budget)
        csr = CSRGraph.from_graph(generators.path_graph(vertices))
        rows = kernels.sweep_block_rows(csr)
        assert rows >= 1
        if rows > 1:
            assert rows * vertices * 8 <= budget
        # No larger block fits.
        assert (rows + 1) * vertices * 8 > budget

    @pytest.mark.parametrize("side, rows", [(64, 32), (32, 128)])
    def test_default_budget_is_one_mebibyte(self, side, rows):
        csr = CSRGraph.from_graph(generators.grid_graph(side, side))
        assert kernels.SWEEP_BLOCK_BYTES == 1 << 20
        assert kernels.sweep_block_rows(csr) == rows
