"""Seeded randomized equivalence: CSR kernels vs the pure-Python
reference, asserted *exactly*.

All random weights are integer-valued, so every path sum is exactly
representable in float64 and bit-level equality is the right assertion
(for the Dijkstra-shaped kernels it would hold for arbitrary floats
too — both compute minima over left-associated sums — but integer
weights also let the re-associating min-plus kernel be checked
exactly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Rng, WeightedGraph
from repro.algorithms.shortest_paths import (
    all_pairs_dijkstra,
    bellman_ford,
    dijkstra,
    dijkstra_path,
)
from repro.engine import CSRGraph, kernels
from repro.engine.backends import get_backend
from repro.exceptions import GraphError, WeightError
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("trial", range(3))
class TestBackendEquivalence:
    def _graph(self, family, trial):
        return family(Rng(SEED + 101 * trial))

    def test_all_pairs_exact(self, family, trial):
        graph = self._graph(family, trial)
        assert all_pairs_dijkstra(graph, backend="python") == (
            all_pairs_dijkstra(graph, backend="numpy")
        )

    def test_sssp_exact(self, family, trial):
        graph = self._graph(family, trial)
        source = graph.vertex_list()[0]
        d_py, _ = dijkstra(graph, source, backend="python")
        d_np, p_np = dijkstra(graph, source, backend="numpy")
        assert d_py == d_np
        # The numpy parents reconstruct optimal-weight paths (the
        # tree itself may differ under ties).
        for t in list(d_np)[:10]:
            if t == source:
                continue
            path = [t]
            while path[-1] != source:
                path.append(p_np[path[-1]])
            path.reverse()
            assert graph.path_weight(path) == d_py[t]

    def test_sources_subset_exact(self, family, trial):
        graph = self._graph(family, trial)
        sources = graph.vertex_list()[::5]
        assert all_pairs_dijkstra(
            graph, sources=sources, backend="python"
        ) == all_pairs_dijkstra(graph, sources=sources, backend="numpy")

    def test_relaxation_fallback_exact(self, family, trial):
        # The scipy-free kernel must agree even when scipy is present.
        graph = self._graph(family, trial)
        reference = all_pairs_dijkstra(graph, backend="python")
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

    def test_bellman_ford_distances_exact(self, family, trial):
        graph = self._graph(family, trial)
        source = graph.vertex_list()[-1]
        reference, _ = bellman_ford(graph, source)
        csr = CSRGraph.from_graph(graph)
        dist = kernels.bellman_ford_distances(csr, csr.index_of(source))
        inf = float("inf")
        computed = {
            csr.vertices[i]: d
            for i, d in enumerate(dist.tolist())
            if d != inf
        }
        assert computed == reference


class TestMinPlus:
    @pytest.mark.parametrize("trial", range(3))
    def test_exact_on_integer_grids(self, trial):
        graph = _grid(Rng(SEED + trial))
        reference = all_pairs_dijkstra(graph, backend="python")
        csr = CSRGraph.from_graph(graph)
        dense = kernels.min_plus_apsp(kernels.dense_distance_matrix(csr))
        for i, s in enumerate(csr.vertices):
            for j, t in enumerate(csr.vertices):
                assert dense[i, j] == reference[s][t]

    def test_disconnected_stays_infinite(self):
        graph = _disconnected(Rng(SEED))
        csr = CSRGraph.from_graph(graph)
        dense = kernels.min_plus_apsp(kernels.dense_distance_matrix(csr))
        iso = csr.index_of("isolated")
        other = csr.index_of(0)
        assert dense[iso, other] == float("inf")
        assert dense[iso, iso] == 0.0


class TestSemanticsParity:
    def test_early_exit_target_matches(self):
        graph = _grid(Rng(SEED))
        source, target = (0, 0), (6, 8)
        d_py, _ = dijkstra(graph, source, target=target, backend="python")
        d_np, _ = dijkstra(graph, source, target=target, backend="numpy")
        assert d_py == d_np  # identical settled sets, not just target

    def test_dijkstra_path_agrees_across_backends(self):
        graph = _grid(Rng(SEED + 5))
        path_py, w_py = dijkstra_path(graph, (0, 0), (6, 8))
        d_np, _ = dijkstra(graph, (0, 0), backend="numpy")
        assert graph.path_weight(path_py) == w_py
        assert d_np[(6, 8)] == w_py

    def test_negative_weight_raises_on_both_backends(self):
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, -2.0), (0, 2, 1.0)]
        )
        for name in ("python", "numpy"):
            with pytest.raises(WeightError):
                dijkstra(graph, 0, backend=name)
            with pytest.raises(WeightError):
                all_pairs_dijkstra(graph, backend=name)

    def test_negative_cycle_detected(self):
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, -3.0), (2, 0, 1.0)], directed=True
        )
        csr = CSRGraph.from_graph(graph)
        with pytest.raises(GraphError):
            kernels.bellman_ford_distances(csr, 0)

    def test_directed_negative_bellman_ford(self):
        # Negative arcs, no negative cycle: the Appendix-B regime.
        graph = WeightedGraph.from_edges(
            [(0, 1, 4.0), (0, 2, 2.0), (2, 1, -1.0), (1, 3, 3.0)],
            directed=True,
        )
        reference, _ = bellman_ford(graph, 0)
        csr = CSRGraph.from_graph(graph)
        dist = kernels.bellman_ford_distances(csr, 0)
        for v, d in reference.items():
            assert dist[csr.index_of(v)] == d


class TestPathReconstruction:
    def test_index_path_matches_vertex_path(self):
        graph = _grid(Rng(SEED + 9))
        csr = CSRGraph.from_graph(graph)
        s, t = csr.index_of((0, 0)), csr.index_of((6, 8))
        dist, pred = kernels.sssp_dijkstra(csr, s)
        idx_path = kernels.path_from_predecessors(pred, s, t)
        vertex_path = [csr.vertex_at(i) for i in idx_path]
        assert graph.is_path(vertex_path)
        assert graph.path_weight(vertex_path) == dist[t]

    def test_unreachable_raises(self):
        graph = _disconnected(Rng(SEED + 2))
        csr = CSRGraph.from_graph(graph)
        s = csr.index_of(0)
        dist, pred = kernels.sssp_dijkstra(csr, s)
        from repro.exceptions import DisconnectedGraphError

        with pytest.raises(DisconnectedGraphError):
            kernels.path_from_predecessors(
                pred, s, csr.index_of("isolated")
            )


class TestLaplacePerturb:
    def test_matches_scalar_draws(self):
        weights = np.arange(5, dtype=float)
        noisy = kernels.laplace_perturb(weights, 2.0, Rng(3))
        expected = weights + Rng(3).laplace_vector(2.0, 5)
        assert np.array_equal(noisy, expected)

    def test_clamp(self):
        noisy = kernels.laplace_perturb(
            np.zeros(64), 5.0, Rng(4), clamp_at_zero=True
        )
        assert (noisy >= 0).all()


def test_python_backend_rejects_unknown_vertex():
    graph = generators.path_graph(3)
    backend = get_backend("python")
    from repro.exceptions import VertexNotFoundError

    with pytest.raises(VertexNotFoundError):
        backend.sssp(graph, "missing")
