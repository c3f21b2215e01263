"""Breadth-first traversal: hop distances and connectivity.

The paper distinguishes the weighted distance ``d_w(x, y)`` from the
*hop* distance ``h(x, y)`` (Section 2).  Hop distances define
k-coverings (Definition 4.1) and the hop-dependent accuracy of
Theorem 5.5, so they get a dedicated, weight-blind implementation.
:func:`is_connected` asks the engine's compiled topology instead of
walking the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from ..engine.csr import CSRGraph
from ..engine.frontier import is_weakly_connected
from ..exceptions import VertexNotFoundError
from ..graphs.graph import Vertex, WeightedGraph

__all__ = [
    "bfs_hop_distances",
    "bfs_hop_distance",
    "connected_components",
    "is_connected",
]


def bfs_hop_distances(
    graph: WeightedGraph, source: Vertex, cutoff: int | None = None
) -> Dict[Vertex, int]:
    """Hop distances ``h(source, v)`` to every reachable vertex.

    With ``cutoff`` set, exploration stops beyond that many hops — used
    when verifying k-coverings, where only ``h <= k`` matters.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    distances: Dict[Vertex, int] = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = distances[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in graph.adjacent(v):
            if u not in distances:
                distances[u] = d + 1
                queue.append(u)
    return distances


def bfs_hop_distance(graph: WeightedGraph, source: Vertex, target: Vertex) -> int:
    """The hop distance ``h(source, target)``.

    Returns ``-1`` when the target is unreachable (the paper writes
    ``infinity``; an int sentinel keeps the API integer-typed).
    """
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    distances = bfs_hop_distances(graph, source)
    return distances.get(target, -1)


def connected_components(graph: WeightedGraph) -> List[List[Vertex]]:
    """Connected components as vertex lists, in discovery order.

    For directed graphs this computes *weakly* connected components,
    which is the right notion for reachability preconditions.
    """
    seen: set = set()
    components: List[List[Vertex]] = []
    undirected_neighbors = _undirected_adjacency(graph)
    for start in graph.vertices():
        if start in seen:
            continue
        component = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            component.append(v)
            for u in undirected_neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(component)
    return components


def _undirected_adjacency(graph: WeightedGraph) -> Dict[Vertex, List[Vertex]]:
    adjacency: Dict[Vertex, List[Vertex]] = {v: [] for v in graph.vertices()}
    for u, v, _ in graph.edges():
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def is_connected(graph: WeightedGraph) -> bool:  # privlint: ignore[PL1] weak connectivity reads the compiled topology memo (unit weights), never the weights
    """Whether the graph is (weakly) connected.  Empty graphs count as
    connected vacuously.  Answered by the engine's
    :func:`~repro.engine.frontier.is_weakly_connected`, once per
    compiled topology."""
    return is_weakly_connected(CSRGraph.from_graph(graph))
