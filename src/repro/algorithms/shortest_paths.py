"""Exact shortest-path algorithms.

Dijkstra with a binary heap is the workhorse: every private release in
the paper that outputs paths or distances post-processes noisy weights
with an *exact* shortest-path computation (Algorithm 3, the
synthetic-graph baseline of Section 4, Algorithm 2's distances between
covering vertices).  Bellman–Ford handles the negative weights that the
Appendix-B problems permit.

:func:`all_pairs_dijkstra` is one multi-source sweep of the CSR
kernels in :mod:`repro.engine.kernels`; :func:`dijkstra` is one
binary-heap search over the graph's own adjacency, which needs no
compiled graph.  Both return the same distance bits (minima over
left-associated floating-point path sums).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..engine.csr import CSRGraph
from ..engine.kernels import kernel_span, multi_source_distances
from ..exceptions import (
    DisconnectedGraphError,
    GraphError,
    VertexNotFoundError,
    WeightError,
)
from ..graphs.graph import Vertex, WeightedGraph

__all__ = [
    "dijkstra",
    "dijkstra_path",
    "all_pairs_dijkstra",
    "bellman_ford",
    "path_hops",
    "reconstruct_path",
]

def dijkstra(
    graph: WeightedGraph,
    source: Vertex,
    target: Vertex | None = None,
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Vertex]]:
    """Single-source shortest paths with nonnegative weights.

    Returns ``(distances, parents)`` where ``parents`` maps each settled
    vertex (except the source) to its predecessor on a shortest path.
    With ``target`` given, the search stops once the target is settled,
    and both maps hold only the vertices settled by then.

    Raises :class:`~repro.exceptions.WeightError` on a negative edge
    weight — use :func:`bellman_ford` for those.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if target is not None and not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    distances: Dict[Vertex, float] = {}
    parents: Dict[Vertex, Vertex] = {}
    counter = 0  # tiebreaker so heap never compares vertices
    heap: List[Tuple[float, int, Vertex]] = [(0.0, counter, source)]
    tentative: Dict[Vertex, float] = {source: 0.0}
    with kernel_span("engine.sssp"):
        while heap:
            dist, _, v = heapq.heappop(heap)
            if v in distances:
                continue
            distances[v] = dist
            if v == target:
                # Drop the tentative parents of vertices left unsettled.
                parents = {u: p for u, p in parents.items() if u in distances}
                break
            for u, weight in graph.neighbors(v):
                if weight < 0:
                    raise WeightError(
                        f"Dijkstra requires nonnegative weights; edge "
                        f"({v!r}, {u!r}) has weight {weight}"
                    )
                candidate = dist + weight
                if u not in distances and candidate < tentative.get(
                    u, float("inf")
                ):
                    tentative[u] = candidate
                    parents[u] = v
                    counter += 1
                    heapq.heappush(heap, (candidate, counter, u))
    return distances, parents


def reconstruct_path(
    parents: Dict[Vertex, Vertex], source: Vertex, target: Vertex
) -> List[Vertex]:
    """Rebuild the vertex path from a Dijkstra/Bellman–Ford parent map."""
    path = [target]
    while path[-1] != source:
        v = path[-1]
        if v not in parents:
            raise DisconnectedGraphError(
                f"no path from {source!r} to {target!r}"
            )
        path.append(parents[v])
    path.reverse()
    return path


def dijkstra_path(
    graph: WeightedGraph, source: Vertex, target: Vertex
) -> Tuple[List[Vertex], float]:
    """The shortest path from source to target and its weight.

    Raises :class:`~repro.exceptions.DisconnectedGraphError` when the
    target is unreachable.
    """
    distances, parents = dijkstra(graph, source, target=target)
    if target not in distances:
        raise DisconnectedGraphError(
            f"no path from {source!r} to {target!r}"
        )
    return reconstruct_path(parents, source, target), distances[target]


def all_pairs_dijkstra(
    graph: WeightedGraph,
    sources: Iterable[Vertex] | None = None,
) -> Dict[Vertex, Dict[Vertex, float]]:
    """Exact distances from every source (default: all vertices).

    Returns ``result[s][t] = d_w(s, t)`` for reachable pairs only.
    This is the library's hottest exact-recomputation path: one CSR
    multi-source sweep over every chosen source.

    Nonnegativity is validated up front over *all* edges (not just
    scanned ones); use :func:`bellman_ford` for negative weights.
    """
    graph.check_nonnegative()
    if sources is None:
        chosen = graph.vertex_list()
    else:
        chosen = list(sources)
        for s in chosen:
            if not graph.has_vertex(s):
                raise VertexNotFoundError(s)
    csr = CSRGraph.from_graph(graph)
    with kernel_span("engine.all_pairs", sources=len(chosen)):
        matrix = multi_source_distances(csr, csr.indices_of(chosen))
    vertices = csr.vertices
    inf = float("inf")
    # One C-level pass each for the values and the reachability
    # mask; rows without unreachable targets take the zip fast path.
    rows = matrix.tolist()
    unreachable = np.isinf(matrix).any(axis=1).tolist()
    result: Dict[Vertex, Dict[Vertex, float]] = {}
    for s, values, has_inf in zip(chosen, rows, unreachable):
        if has_inf:
            result[s] = {
                vertices[i]: d for i, d in enumerate(values) if d != inf
            }
        else:
            result[s] = dict(zip(vertices, values))
    return result


def bellman_ford(
    graph: WeightedGraph, source: Vertex
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Vertex]]:
    """Single-source shortest paths allowing negative weights.

    Appendix B permits negative weights for spanning trees and
    matchings; Bellman–Ford covers distance queries in that regime.
    Raises :class:`~repro.exceptions.GraphError` on a negative cycle
    (undirected graphs: any negative edge forms one, so this effectively
    requires nonnegative weights there — pass directed graphs for true
    negative-weight work).
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if not graph.directed:
        for u, v, w in graph.edges():
            if w < 0:
                raise GraphError(
                    "negative undirected edge "
                    f"({u!r}, {v!r}) forms a negative cycle"
                )
    distances: Dict[Vertex, float] = {source: 0.0}
    parents: Dict[Vertex, Vertex] = {}
    # Collect directed arcs (both orientations when undirected).
    arcs: List[Tuple[Vertex, Vertex, float]] = []
    for u, v, w in graph.edges():
        arcs.append((u, v, w))
        if not graph.directed:
            arcs.append((v, u, w))
    for _ in range(max(graph.num_vertices - 1, 0)):
        changed = False
        for u, v, w in arcs:
            if u in distances and distances[u] + w < distances.get(
                v, float("inf")
            ):
                distances[v] = distances[u] + w
                parents[v] = u
                changed = True
        if not changed:
            break
    else:
        for u, v, w in arcs:
            if u in distances and distances[u] + w < distances.get(
                v, float("inf")
            ):
                raise GraphError("graph contains a negative cycle")
    return distances, parents


def path_hops(path: List[Vertex]) -> int:
    """The hop length ``l(P)`` of a vertex path (number of edges)."""
    if not path:
        raise GraphError("empty vertex sequence is not a path")
    return len(path) - 1
