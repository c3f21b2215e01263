"""k-coverings (Definition 4.1, Lemma 4.4, Theorem 4.7).

A subset ``Z`` of vertices is a *k-covering* when every vertex is within
hop distance ``k`` of some member of ``Z``.  Lemma 4.4 (after Meir and
Moon) shows every connected graph on ``V >= k + 1`` vertices has a
k-covering of size at most ``floor(V / (k+1))``, built from the residue
classes of depth modulo ``k+1`` in a spanning tree rooted at an endpoint
of a longest tree path.  Algorithm 2 (bounded-weight distances) releases
noisy distances only between covering vertices, which is where its
``sqrt(V M / eps)`` error bound comes from.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Tuple

from ..exceptions import DisconnectedGraphError, GraphError
from ..graphs.graph import Vertex, WeightedGraph
from .traversal import bfs_hop_distances, is_connected

__all__ = [
    "is_k_covering",
    "meir_moon_k_covering",
    "greedy_k_covering",
    "grid_covering",
    "nearest_in_set",
]


def nearest_in_set(
    graph: WeightedGraph,
    targets: Iterable[Vertex],
    cutoff: int | None = None,
) -> Dict[Vertex, Tuple[Vertex, int]]:
    """For every vertex, the nearest target by hop distance.

    Multi-source BFS from all of ``targets``; returns
    ``v -> (nearest_target, hops)`` for every vertex reached (all
    vertices within ``cutoff`` hops of some target, or all reachable
    vertices when ``cutoff`` is ``None``).  This realizes step 2 of
    Algorithm 2: assigning each vertex ``v`` its covering vertex
    ``z(v)`` with ``h(v, z(v)) <= k``.
    """
    result: Dict[Vertex, Tuple[Vertex, int]] = {}
    queue: deque = deque()
    for z in targets:
        if not graph.has_vertex(z):
            raise GraphError(f"covering vertex {z!r} is not in the graph")
        if z not in result:
            result[z] = (z, 0)
            queue.append(z)
    while queue:
        v = queue.popleft()
        origin, hops = result[v]
        if cutoff is not None and hops >= cutoff:
            continue
        for u in graph.adjacent(v):
            if u not in result:
                result[u] = (origin, hops + 1)
                queue.append(u)
    return result


def is_k_covering(
    graph: WeightedGraph, candidate: Iterable[Vertex], k: int
) -> bool:
    """Whether ``candidate`` is a k-covering of the graph
    (Definition 4.1)."""
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    candidate = list(candidate)
    if not candidate:
        return graph.num_vertices == 0
    reached = nearest_in_set(graph, candidate, cutoff=k)
    return len(reached) == graph.num_vertices


def _bfs_tree_parents(
    graph: WeightedGraph, root: Vertex
) -> Dict[Vertex, Vertex | None]:
    parents: Dict[Vertex, Vertex | None] = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in graph.adjacent(v):
            if u not in parents:
                parents[u] = v
                queue.append(u)
    return parents


def _tree_farthest(
    tree_adjacency: Dict[Vertex, List[Vertex]], start: Vertex
) -> Tuple[Vertex, Dict[Vertex, int]]:
    depths = {start: 0}
    queue = deque([start])
    farthest = start
    while queue:
        v = queue.popleft()
        if depths[v] > depths[farthest]:
            farthest = v
        for u in tree_adjacency[v]:
            if u not in depths:
                depths[u] = depths[v] + 1
                queue.append(u)
    return farthest, depths


def meir_moon_k_covering(graph: WeightedGraph, k: int) -> List[Vertex]:
    """A k-covering of size at most ``floor(V / (k+1))`` (Lemma 4.4).

    Construction: take a BFS spanning tree ``T``, locate an endpoint
    ``x`` of a longest path of ``T`` (double BFS), and partition the
    vertices into residue classes ``Z_i`` of tree-depth modulo ``k+1``.
    The smallest class that actually covers (verified against ``G``) is
    returned; when the tree's eccentricity from ``x`` is below ``k`` the
    singleton ``{x}`` already covers and is returned instead.

    Requires a connected graph with ``V >= k + 1`` (the lemma's
    hypothesis).
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    n = graph.num_vertices
    if n == 0:
        return []
    if n < k + 1:
        raise GraphError(
            f"Lemma 4.4 requires V >= k + 1 (V={n}, k={k})"
        )
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "k-coverings by Lemma 4.4 require a connected graph"
        )
    if k == 0:
        return graph.vertex_list()

    # Spanning tree of G as an adjacency map.
    root = next(iter(graph.vertices()))
    parents = _bfs_tree_parents(graph, root)
    tree_adjacency: Dict[Vertex, List[Vertex]] = {
        v: [] for v in graph.vertices()
    }
    for child, parent in parents.items():
        if parent is not None:
            tree_adjacency[child].append(parent)
            tree_adjacency[parent].append(child)

    # Endpoint of a longest tree path by double BFS.
    far, _ = _tree_farthest(tree_adjacency, root)
    x, depths = _tree_farthest(tree_adjacency, far)
    # ``x`` is the far end; re-root depths at x.
    _, depths = _tree_farthest(tree_adjacency, x)

    eccentricity = max(depths.values())
    if eccentricity < k:
        # Every vertex is within ecc < k tree-hops of x already.
        return [x]

    classes: List[List[Vertex]] = [[] for _ in range(k + 1)]
    for v, d in depths.items():
        classes[d % (k + 1)].append(v)
    # Smallest residue class first; verify coverage against G itself
    # (hop distances in G are at most tree hop distances, so tree
    # coverage implies graph coverage, but verification is cheap and
    # guards the implementation).
    for z in sorted(classes, key=len):
        if z and is_k_covering(graph, z, k):
            return z
    raise GraphError(
        "Meir-Moon construction failed to produce a covering; "
        "this indicates a bug"
    )  # pragma: no cover


def greedy_k_covering(graph: WeightedGraph, k: int) -> List[Vertex]:
    """A k-covering by greedy set cover.

    Often smaller than the Lemma 4.4 construction in practice; the
    bounded-weight benchmarks use it to explore the "for specific graphs
    we can obtain better bounds by finding a smaller set Z" remark after
    Theorem 4.6.  No size guarantee beyond being a valid covering.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    uncovered = set(graph.vertices())
    covering: List[Vertex] = []
    # Precompute each vertex's k-ball lazily; greedy picks the vertex
    # covering the most currently uncovered vertices.
    while uncovered:
        best_vertex = None
        best_gain: set = set()
        for v in graph.vertices():
            ball = set(bfs_hop_distances(graph, v, cutoff=k))
            gain = ball & uncovered
            if len(gain) > len(best_gain):
                best_gain = gain
                best_vertex = v
        if best_vertex is None or not best_gain:
            raise DisconnectedGraphError(
                "graph has an unreachable vertex; no covering exists"
            )
        covering.append(best_vertex)
        uncovered -= best_gain
    return covering


def grid_covering(rows: int, cols: int, spacing: int) -> List[Vertex]:
    """The explicit grid covering of Theorem 4.7.

    On the ``rows x cols`` grid with vertices ``(r, c)``, take vertices
    whose coordinates are both one less than a multiple of ``spacing``.
    The result is a ``2 * spacing``-covering of size about
    ``(rows / spacing) * (cols / spacing)``; with ``rows = cols =
    sqrt(V)`` and ``spacing = V^(1/3)`` this is the paper's
    ``2 V^(1/3)``-covering of size at most ``V^(1/3)``.
    """
    if rows <= 0 or cols <= 0:
        raise GraphError("grid dimensions must be positive")
    if spacing <= 0:
        raise GraphError(f"spacing must be positive, got {spacing}")
    row_coords = [r for r in range(rows) if (r + 1) % spacing == 0]
    col_coords = [c for c in range(cols) if (c + 1) % spacing == 0]
    # When the grid is narrower than the spacing, fall back to the last
    # coordinate so the covering is never empty.
    if not row_coords:
        row_coords = [rows - 1]
    if not col_coords:
        col_coords = [cols - 1]
    return [(r, c) for r in row_coords for c in col_coords]
