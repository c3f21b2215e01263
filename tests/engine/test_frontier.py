"""Level-synchronous breadth-first search over CSR arrays, against the
dict-based traversal of :mod:`repro.algorithms.traversal`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Rng, WeightedGraph
from repro.algorithms.traversal import bfs_hop_distances, connected_components
from repro.engine import CSRGraph
from repro.engine import frontier as frontier_module
from repro.engine.frontier import FrontierSearch, is_weakly_connected, reached
from repro.graphs import generators


def _random_digraph(n: int, arcs: int, rng: Rng) -> WeightedGraph:
    graph = WeightedGraph(directed=True)
    for v in range(n):
        graph.add_vertex(v)
    for _ in range(arcs):
        u, v = rng.integer(0, n), rng.integer(0, n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, 1.0)
    return graph


GRAPHS = {
    "grid": lambda: generators.grid_graph(7, 9),
    "sparse": lambda: generators.erdos_renyi_graph(80, 0.03, Rng(5)),
    "directed": lambda: _random_digraph(60, 120, Rng(6)),
}


def _levels(search, csr, sources):
    """Run a search from ``sources`` to exhaustion; per reached pair,
    its owner, vertex, level, parent entry and arc, by entry id."""
    owner, vertex = search.start(sources)
    none = np.full(owner.size, -1)
    rows = [(owner, vertex, np.zeros(owner.size, dtype=np.int64), none, none)]
    level = 0
    while owner.size:
        level += 1
        owner, vertex, parent, arc = search.expand(owner, vertex)
        rows.append((owner, vertex, np.full(owner.size, level), parent, arc))
    owner, vertex, depth, parent, arc = (
        np.concatenate(column) for column in zip(*rows)
    )
    entries = search.entries(owner, vertex)
    assert np.array_equal(entries, np.arange(owner.size))
    return owner, vertex, depth, parent, arc


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_levels_are_hop_distances(name):
    graph = GRAPHS[name]()
    csr = CSRGraph.from_graph(graph)
    sources = [0, 5, 5, csr.n - 1]
    search = FrontierSearch(csr.indptr, csr.indices, 8)
    tails = np.repeat(np.arange(csr.n), np.diff(csr.indptr))
    # The scratch is reused: a second search after a reset repeats the
    # first exactly.
    runs = []
    for _ in range(2):
        runs.append(_levels(search, csr, sources))
        search.reset()
    for first, again in zip(*runs):
        assert np.array_equal(first, again)
    owner, vertex, depth, parent, arc = runs[0]
    for k, source in enumerate(sources):
        mine = owner == k
        hops = bfs_hop_distances(graph, csr.vertex_at(source))
        found = zip(vertex[mine].tolist(), depth[mine].tolist())
        assert {csr.vertex_at(v): d for v, d in found} == hops
    # Each non-root entry hangs off an entry one level up, of the same
    # source, along an arc from the parent's vertex to its own.
    child = depth > 0
    assert np.array_equal(owner[parent[child]], owner[child])
    assert np.array_equal(depth[parent[child]], depth[child] - 1)
    assert np.array_equal(tails[arc[child]], vertex[parent[child]])
    assert np.array_equal(csr.indices[arc[child]], vertex[child])


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_source_grows_alike_in_any_company(name):
    # The hub build's one-search ball trees rely on both: a level lists
    # its owners in ascending order, and a source reaches the same
    # vertices in the same order along the same arcs whichever other
    # sources share its search.
    csr = CSRGraph.from_graph(GRAPHS[name]())
    search = FrontierSearch(csr.indptr, csr.indices, 8)
    sources = [3, 0, csr.n - 1, 7, 0]
    owner, vertex, depth, _, arc = _levels(search, csr, sources)
    search.reset()
    for level in np.unique(depth):
        assert (np.diff(owner[depth == level]) >= 0).all()
    for k, source in enumerate(sources):
        _, alone, _, _, alone_arc = _levels(search, csr, [source])
        search.reset()
        assert np.array_equal(vertex[owner == k], alone)
        assert np.array_equal(arc[owner == k], alone_arc)


def test_a_dropped_source_stops_growing():
    csr = CSRGraph.from_graph(generators.path_graph(10))
    search = FrontierSearch(csr.indptr, csr.indices, 2)
    owner, vertex = search.start([0, 9])
    for _ in range(3):
        owner, vertex, _, _ = search.expand(owner, vertex)
        keep = owner == 1
        owner, vertex = owner[keep], vertex[keep]
    everywhere = np.arange(10)
    from_start = search.entries(np.zeros(10, dtype=np.int64), everywhere)
    from_end = search.entries(np.ones(10, dtype=np.int64), everywhere)
    assert np.flatnonzero(from_start >= 0).tolist() == [0, 1]
    assert np.flatnonzero(from_end >= 0).tolist() == [6, 7, 8, 9]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_reached_matches_traversal(name):
    graph = GRAPHS[name]()
    csr = CSRGraph.from_graph(graph)
    for source in (0, csr.n // 2):
        mask = reached(csr.indptr, csr.indices, source)
        want = set(bfs_hop_distances(graph, csr.vertex_at(source)))
        assert {csr.vertex_at(int(v)) for v in np.flatnonzero(mask)} == want


def _single() -> WeightedGraph:
    graph = WeightedGraph()
    graph.add_vertex("only")
    return graph


CONNECTIVITY = {
    "empty": WeightedGraph,
    "single": _single,
    "grid": lambda: generators.grid_graph(5, 6),
    "islands": lambda: WeightedGraph.from_edges([(0, 1), (2, 3)]),
    # Connected only when arcs are followed both ways.
    "weak-digraph": lambda: WeightedGraph.from_edges(
        [(0, 1), (2, 1), (2, 3), (4, 3)], directed=True
    ),
    "split-digraph": lambda: WeightedGraph.from_edges(
        [(0, 1), (2, 3)], directed=True
    ),
}


def _traversal_connected(graph: WeightedGraph) -> bool:
    """The dict-based traversal's verdict: at most one component."""
    return len(connected_components(graph)) <= 1


@pytest.mark.parametrize("name", sorted(CONNECTIVITY))
def test_weak_connectivity_matches_components(name):
    graph = CONNECTIVITY[name]()
    connected = is_weakly_connected(CSRGraph.from_graph(graph))
    assert connected == _traversal_connected(graph)


def _relabelled(graph: WeightedGraph, rng: Rng) -> WeightedGraph:
    """``graph`` with its vertices inserted in a shuffled order, so the
    union-find's roots are not the traversal's visiting order."""
    order = graph.vertex_list()
    rng.shuffle(order)
    clone = WeightedGraph(directed=graph.directed)
    for v in order:
        clone.add_vertex(v)
    for u, v, w in graph.edges():
        clone.add_edge(u, v, w)
    return clone


@pytest.mark.parametrize("seed", range(12))
def test_weak_connectivity_of_random_graphs(seed):
    """Sparse and dense, directed and undirected, one component or
    several: the union-find agrees with the dict traversal."""
    rng = Rng(seed)
    n = 2 + seed * 5
    for graph in (
        generators.erdos_renyi_graph(n, min(1.0, 1.5 / n), rng),
        generators.erdos_renyi_graph(n, min(1.0, 4.0 / n), rng),
        _random_digraph(n, n, rng),
        _random_digraph(n, 3 * n, rng),
    ):
        for candidate in (graph, _relabelled(graph, rng)):
            connected = is_weakly_connected(CSRGraph.from_graph(candidate))
            assert connected == _traversal_connected(candidate)


def test_weak_connectivity_of_long_paths():
    """A path whose labels fall or zigzag along it hooks into one chain
    of roots that the jumps must collapse."""
    n = 3000
    falling = WeightedGraph.from_edges([(i + 1, i) for i in range(n)])
    zigzag = WeightedGraph.from_edges(
        [((-1) ** i * i, (-1) ** (i + 1) * (i + 1)) for i in range(n)]
    )
    for graph in (falling, zigzag):
        assert is_weakly_connected(CSRGraph.from_graph(graph))
        graph.add_vertex("apart")
        assert not is_weakly_connected(CSRGraph.from_graph(graph))


def test_connectivity_is_searched_once_per_topology(monkeypatch):
    searches = []
    search = frontier_module._weakly_connected

    def counting(unit):
        searches.append(unit.n)
        return search(unit)

    monkeypatch.setattr(frontier_module, "_weakly_connected", counting)
    graph = generators.grid_graph(6, 6)
    CSRGraph.from_graph(graph)
    for weight in (1.0, 2.0, 3.0):
        clone = graph.with_weights([weight] * graph.num_edges)
        assert is_weakly_connected(CSRGraph.from_graph(clone))
    assert searches == [36]
