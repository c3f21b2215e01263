"""Unit tests for :mod:`repro.algorithms.traversal`."""

from __future__ import annotations

import pytest

from repro import VertexNotFoundError, WeightedGraph
from repro.algorithms import bfs_hop_distances, connected_components, is_connected
from repro.algorithms.traversal import bfs_hop_distance
from repro.engine import frontier
from repro.graphs import generators


class TestBfsHopDistances:
    def test_path_graph_hops(self):
        g = generators.path_graph(6)
        hops = bfs_hop_distances(g, 0)
        assert hops == {i: i for i in range(6)}

    def test_weights_are_ignored(self):
        """Hop distance h(x, y) is weight-blind (Section 2)."""
        g = WeightedGraph.from_edges(
            [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 0.001)]
        )
        hops = bfs_hop_distances(g, 0)
        assert hops[2] == 1

    def test_cutoff(self):
        g = generators.path_graph(10)
        hops = bfs_hop_distances(g, 0, cutoff=3)
        assert max(hops.values()) == 3
        assert set(hops) == {0, 1, 2, 3}

    def test_unreachable_absent(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        hops = bfs_hop_distances(g, 0)
        assert 2 not in hops

    def test_missing_source(self):
        g = generators.path_graph(3)
        with pytest.raises(VertexNotFoundError):
            bfs_hop_distances(g, 99)

    def test_single_pair_helper(self):
        g = generators.grid_graph(3, 3)
        assert bfs_hop_distance(g, (0, 0), (2, 2)) == 4
        disconnected = WeightedGraph.from_edges([(0, 1, 1.0)])
        disconnected.add_vertex(5)
        assert bfs_hop_distance(disconnected, 0, 5) == -1

    def test_grid_hops_are_manhattan(self):
        g = generators.grid_graph(4, 4)
        hops = bfs_hop_distances(g, (0, 0))
        for (r, c), h in hops.items():
            assert h == r + c


class TestComponents:
    def test_connected_graph_single_component(self, grid5):
        components = connected_components(grid5)
        assert len(components) == 1
        assert len(components[0]) == 25

    def test_multiple_components(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        g.add_vertex(4)
        components = connected_components(g)
        assert sorted(sorted(c) for c in components) == [[0, 1], [2, 3], [4]]

    def test_is_connected(self, grid5):
        assert is_connected(grid5)
        g = WeightedGraph()
        g.add_vertex(0)
        g.add_vertex(1)
        assert not is_connected(g)

    def test_empty_graph_is_connected(self):
        assert is_connected(WeightedGraph())

    def test_directed_weak_connectivity(self):
        g = WeightedGraph(directed=True)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 1, 1.0)  # 1 unreachable to 2, but weakly connected
        assert is_connected(g)

    def test_is_connected_reads_the_topology_memo(self, monkeypatch):
        # One connectivity search per compiled topology, whatever the
        # weights: is_connected runs no traversal of its own.
        searches = []
        search = frontier._weakly_connected

        def counting(unit):
            searches.append(unit.n)
            return search(unit)

        monkeypatch.setattr(frontier, "_weakly_connected", counting)
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        assert is_connected(g)
        assert is_connected(g.with_weights([3.0, 4.0]))
        assert searches == [3]
