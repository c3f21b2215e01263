"""The local-search hub build against the full-sweep oracle.

:func:`repro.apsp.hubs.build_hub_structure` finds its exact values by
hub-row sweeps, hop-limited ball searches and weight-limited pair
sweeps.  Under the same seed it must release exactly what the
full-sweep construction of :mod:`hub_reference` releases: the same
hubs, the same hub table and ball table bit for bit, the same noise
scale and pair count — on the scipy path and on the relaxation
fallback alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hub_reference import reference_hub_structure

from repro import DisconnectedGraphError, GraphError, Rng, WeightedGraph
from repro.apsp import hubs as hubs_module
from repro.apsp.hubs import (
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)
from repro.engine import CSRGraph, kernels
from repro.graphs import generators
from repro.serving.sharding import partition_graph

SEED = 2204023


@pytest.fixture(params=["scipy", "relaxation"])
def engine(request, monkeypatch):
    """Run each case on both sweep paths (scipy-free installs run the
    fallback twice)."""
    if request.param == "relaxation":
        monkeypatch.setattr(kernels, "_scipy_dijkstra", None)
    return request.param


def _assert_identical(graph, sites, seed, hub_count=None, ball_size=None):
    csr = CSRGraph.from_graph(graph)
    site_idx = csr.indices_of(sites)
    m = len(site_idx)
    h = default_hub_count(m) if hub_count is None else hub_count
    b = default_ball_size(m) if ball_size is None else ball_size
    built = build_hub_structure(csr, site_idx, h, b, 1.0, 0.0, Rng(seed))
    oracle = reference_hub_structure(
        csr, site_idx, h, b, 1.0, 0.0, Rng(seed)
    )
    assert np.array_equal(built.hub_positions, oracle.hub_positions)
    assert np.array_equal(built.matrix, oracle.matrix)
    assert built.ball == oracle.ball
    assert built.noise_scale == oracle.noise_scale
    assert built.pair_count == oracle.pair_count
    return built


def _random_weights(graph: WeightedGraph, rng: Rng) -> WeightedGraph:
    return generators.assign_random_weights(graph, rng, low=0.5, high=3.0)


def _congested_grid(rows: int, cols: int, rng: Rng) -> WeightedGraph:
    """Random weights, ten times heavier in the lower-right quarter."""
    graph = generators.grid_graph(rows, cols)
    weights = []
    for (r1, c1), (r2, c2) in graph.edge_list():
        slow = min(r1, r2) >= rows // 2 and min(c1, c2) >= cols // 2
        weights.append(rng.uniform(1.0, 2.0) * (10.0 if slow else 1.0))
    return graph.with_weights(weights)


def _strongly_connected_digraph(n: int, rng: Rng) -> WeightedGraph:
    """A directed cycle through all vertices plus random chords."""
    graph = WeightedGraph(directed=True)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, rng.uniform(0.5, 3.0))
    for _ in range(2 * n):
        u, v = rng.integer(0, n), rng.integer(0, n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(0.5, 3.0))
    return graph


@pytest.mark.parametrize("seed", range(3))
class TestBitIdentical:
    def test_unit_grid_hop_ties(self, engine, seed):
        graph = generators.grid_graph(9, 11)
        _assert_identical(graph, graph.vertex_list(), SEED + seed)

    def test_random_weight_erdos_renyi(self, engine, seed):
        rng = Rng(SEED + seed)
        graph = _random_weights(
            generators.erdos_renyi_graph(90, 0.05, rng), rng
        )
        _assert_identical(graph, graph.vertex_list(), SEED + seed)

    def test_shard_boundary_sites(self, engine, seed):
        rng = Rng(SEED + seed)
        graph = _random_weights(generators.grid_graph(14, 14), rng)
        boundary = partition_graph(graph, 4, seed=seed).boundary
        _assert_identical(graph, boundary, SEED + seed)

    def test_directed_graph(self, engine, seed):
        graph = _strongly_connected_digraph(70, Rng(SEED + seed))
        _assert_identical(graph, graph.vertex_list(), SEED + seed)


class TestLimitReruns:
    def test_congestion_spread_forces_reruns(self, engine, monkeypatch):
        # Ball pairs inside the heavy quarter lie beyond their first
        # limit (hop count x mean weight), so their sources sweep again.
        limits = {}
        sweep = kernels.multi_source_distances

        def spy(csr, sources, allow_negative=False, limit=np.inf):
            # Record weighted sweeps only; the ball search sweeps unit
            # weights and every weight here exceeds 1.
            if csr.weights.max() > 1.0:
                for s in np.asarray(sources).tolist():
                    limits.setdefault(s, []).append(limit)
            return sweep(csr, sources, allow_negative, limit)

        monkeypatch.setattr(hubs_module, "multi_source_distances", spy)
        graph = _congested_grid(12, 12, Rng(SEED))
        _assert_identical(graph, graph.vertex_list(), SEED)
        reruns = [v for v in limits.values() if len(v) > 1]
        assert reruns
        assert all(v[-1] > v[0] for v in reruns)


class TestEdgeSizes:
    def test_no_ball(self, engine):
        graph = _random_weights(generators.grid_graph(7, 8), Rng(SEED))
        built = _assert_identical(
            graph, graph.vertex_list(), SEED, ball_size=0
        )
        assert built.ball == {}

    def test_every_site_a_hub(self, engine):
        graph = _random_weights(generators.grid_graph(7, 8), Rng(SEED))
        m = graph.num_vertices
        built = _assert_identical(
            graph, graph.vertex_list(), SEED, hub_count=m
        )
        # Every ball pair has a hub endpoint, so none is released.
        assert built.ball == {}

    def test_ball_spans_all_other_sites(self, engine):
        graph = _random_weights(generators.grid_graph(6, 7), Rng(SEED))
        m = graph.num_vertices
        _assert_identical(
            graph, graph.vertex_list(), SEED, hub_count=3, ball_size=m - 1
        )

    def test_sites_inside_one_component(self, engine):
        # The graph is disconnected, but the sites all reach each other.
        graph = _random_weights(generators.grid_graph(6, 6), Rng(SEED))
        graph.add_edge("far", "away", 1.0)
        sites = [v for v in graph.vertex_list() if v not in ("far", "away")]
        _assert_identical(graph, sites, SEED)


def test_duplicate_sites_rejected():
    # Ball positions are keyed by vertex, so a repeated site is refused.
    csr = CSRGraph.from_graph(generators.grid_graph(4, 4))
    with pytest.raises(GraphError):
        build_hub_structure(
            csr, np.array([0, 1, 2, 1]), 1, 1, 1.0, 0.0, Rng(SEED)
        )


class TestUnreachableSites:
    def _rejects_before_drawing(self, graph, sites):
        csr = CSRGraph.from_graph(graph)
        rng = Rng(SEED)
        with pytest.raises(DisconnectedGraphError):
            build_hub_structure(
                csr, csr.indices_of(sites), 2, 2, 1.0, 0.0, rng
            )
        # The rejected build left the generator untouched.
        assert np.array_equal(
            rng.laplace_vector(1.0, 4), Rng(SEED).laplace_vector(1.0, 4)
        )

    def test_undirected_island(self):
        graph = generators.grid_graph(4, 4)
        graph.add_edge("island", "shore", 1.0)
        self._rejects_before_drawing(graph, graph.vertex_list())

    def test_directed_one_way(self):
        # Every site reaches the last one, but nothing leads back.
        graph = WeightedGraph(directed=True)
        for i in range(5):
            graph.add_edge(i, i + 1, 1.0)
        self._rejects_before_drawing(graph, graph.vertex_list())

    def test_directed_sink_site(self, engine):
        # A strongly connected core plus a sink the core reaches but
        # which reaches nothing: the core alone builds, with the sink
        # it fails.
        graph = _strongly_connected_digraph(20, Rng(SEED))
        graph.add_edge(0, "sink", 1.0)
        core = [v for v in graph.vertex_list() if v != "sink"]
        _assert_identical(graph, core, SEED)
        self._rejects_before_drawing(graph, graph.vertex_list())
