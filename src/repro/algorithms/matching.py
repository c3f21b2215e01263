"""Exact minimum-weight perfect matching (Appendix B.2's substrate).

Theorem B.6's mechanism noises all weights and releases the *exact*
minimum-weight perfect matching of the noised graph.  Three engines are
provided:

* :func:`hungarian_min_cost_perfect_matching` — the O(n^3) Hungarian
  algorithm (Jonker–Volgenant potentials) for bipartite graphs of any
  size.  The paper's hourglass gadgets (Figure 3, right) are bipartite
  within each gadget, so the paper's experiments run on this engine.
* :func:`exact_min_weight_perfect_matching` — exact matching for
  *general* graphs by bitmask dynamic programming, run per connected
  component (components up to ~22 vertices).  The hourglass instance is
  n disjoint 4-vertex components, so this scales linearly in gadgets.
* :func:`greedy_perfect_matching` — a fast heuristic used only as a
  scalability baseline in benchmarks, never for correctness claims.

Negative weights are permitted throughout (Appendix B allows them, and
Laplace noise produces them).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..exceptions import GraphError, MatchingError, VertexNotFoundError
from ..graphs.graph import Edge, Vertex, WeightedGraph
from .traversal import connected_components

__all__ = [
    "hungarian_min_cost_assignment",
    "hungarian_min_cost_perfect_matching",
    "exact_min_weight_perfect_matching",
    "greedy_perfect_matching",
    "matching_weight",
    "is_perfect_matching",
    "bipartition",
]

_MAX_DP_COMPONENT = 22


def hungarian_min_cost_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Solve the square assignment problem.

    Parameters
    ----------
    cost:
        An ``n x n`` matrix of finite costs (negatives allowed).

    Returns
    -------
    (assignment, total):
        ``assignment[row] = column`` minimizing the total cost.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    for row in cost:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
    inf = float("inf")
    # Jonker–Volgenant style potentials; rows/columns are 1-indexed with
    # a virtual 0 column used while growing alternating paths.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        way = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        if match[j]:
            assignment[match[j] - 1] = j - 1
    total = float(sum(cost[i][assignment[i]] for i in range(n)))
    return assignment, total


def bipartition(graph: WeightedGraph) -> Tuple[List[Vertex], List[Vertex]]:
    """Two-color the graph, returning the color classes.

    Raises :class:`~repro.exceptions.GraphError` if the graph contains
    an odd cycle (is not bipartite).
    """
    color: Dict[Vertex, int] = {}
    for component in connected_components(graph):
        root = component[0]
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in graph.adjacent(x):
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    raise GraphError("graph is not bipartite")
    left = [v for v in graph.vertices() if color[v] == 0]
    right = [v for v in graph.vertices() if color[v] == 1]
    return left, right


def hungarian_min_cost_perfect_matching(
    graph: WeightedGraph,
    left: Sequence[Vertex] | None = None,
    right: Sequence[Vertex] | None = None,
) -> List[Edge]:
    """Minimum-weight perfect matching of a bipartite graph.

    With the bipartition omitted it is computed by two-coloring.  Raises
    :class:`~repro.exceptions.MatchingError` when no perfect matching
    exists (unequal sides, or no feasible assignment).
    """
    if left is None or right is None:
        left, right = bipartition(graph)
    left = list(left)
    right = list(right)
    for v in (*left, *right):
        if not graph.has_vertex(v):
            raise VertexNotFoundError(v)
    if len(left) + len(right) != graph.num_vertices:
        raise MatchingError(
            "bipartition does not cover every vertex of the graph"
        )
    if len(left) != len(right):
        raise MatchingError(
            f"sides have different sizes ({len(left)} vs {len(right)}); "
            "no perfect matching exists"
        )
    n = len(left)
    if n == 0:
        return []
    # Missing edges get a prohibitive finite cost; if any ends up used,
    # there is no perfect matching.  The sentinel exceeds any achievable
    # finite matching cost by construction.
    magnitude = sum(abs(w) for _, _, w in graph.edges()) + 1.0
    big = magnitude * (n + 1)
    cost = [[big] * n for _ in range(n)]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if graph.has_edge(a, b):
                cost[i][j] = graph.weight(a, b)
    assignment, _ = hungarian_min_cost_assignment(cost)
    matching: List[Edge] = []
    for i, j in enumerate(assignment):
        if cost[i][j] >= big:
            raise MatchingError("graph has no perfect matching")
        key = graph.edge_key(left[i], right[j])
        assert key is not None
        matching.append(key)
    return matching


def exact_min_weight_perfect_matching(graph: WeightedGraph) -> List[Edge]:
    """Exact minimum-weight perfect matching of a general graph.

    Solves each connected component by bitmask dynamic programming
    (``O(2^c * c)`` per component of ``c`` vertices), so every component
    must have at most ``22`` vertices and even order.  For bipartite
    graphs prefer :func:`hungarian_min_cost_perfect_matching`, which has
    no size limit.
    """
    matching: List[Edge] = []
    for component in connected_components(graph):
        if len(component) % 2 != 0:
            raise MatchingError(
                f"component of odd size {len(component)} cannot be "
                "perfectly matched"
            )
        if len(component) > _MAX_DP_COMPONENT:
            raise MatchingError(
                f"component of size {len(component)} exceeds the bitmask-DP "
                f"limit of {_MAX_DP_COMPONENT}; use the Hungarian engine "
                "for bipartite graphs"
            )
        matching.extend(_match_component(graph, component))
    return matching


def _match_component(
    graph: WeightedGraph, component: List[Vertex]
) -> List[Edge]:
    index = {v: i for i, v in enumerate(component)}
    c = len(component)
    if c == 0:
        return []
    # adjacency as weight lookup by index pair
    weight: Dict[Tuple[int, int], float] = {}
    for v in component:
        i = index[v]
        for u, w in graph.neighbors(v):
            if u in index:
                weight[(i, index[u])] = w
    inf = float("inf")
    full = 1 << c
    best = [inf] * full
    choice: List[Tuple[int, int] | None] = [None] * full
    best[0] = 0.0
    for mask in range(full):
        if best[mask] is inf:
            continue
        if bin(mask).count("1") % 2 != 0:
            continue
        # lowest unset... we build up by *adding* pairs to the matched set
        try:
            i = next(b for b in range(c) if not mask & (1 << b))
        except StopIteration:
            continue
        for j in range(i + 1, c):
            if mask & (1 << j):
                continue
            w = weight.get((i, j))
            if w is None:
                continue
            new_mask = mask | (1 << i) | (1 << j)
            candidate = best[mask] + w
            if candidate < best[new_mask]:
                best[new_mask] = candidate
                choice[new_mask] = (i, j)
    if best[full - 1] is inf or best[full - 1] == inf:
        raise MatchingError("component has no perfect matching")
    edges: List[Edge] = []
    mask = full - 1
    while mask:
        pair = choice[mask]
        assert pair is not None
        i, j = pair
        key = graph.edge_key(component[i], component[j])
        assert key is not None
        edges.append(key)
        mask &= ~((1 << i) | (1 << j))
    return edges


def greedy_perfect_matching(graph: WeightedGraph) -> List[Edge]:
    """A greedy (lightest-edge-first) perfect matching heuristic.

    Not guaranteed optimal — benchmarks use it only as a scalability
    baseline.  Raises :class:`~repro.exceptions.MatchingError` when the
    greedy process fails to cover every vertex (which can happen even on
    graphs that do have perfect matchings).
    """
    matched: set = set()
    matching: List[Edge] = []
    for u, v, _ in sorted(graph.edges(), key=lambda item: item[2]):
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            key = graph.edge_key(u, v)
            assert key is not None
            matching.append(key)
    if len(matched) != graph.num_vertices:
        raise MatchingError("greedy matching failed to cover all vertices")
    return matching


def matching_weight(graph: WeightedGraph, matching: List[Edge]) -> float:
    """Total weight of a matching under this graph's weight function.

    Like :func:`~repro.algorithms.spanning_tree.spanning_tree_weight`,
    used to evaluate a *noised* matching under the *true* weights
    (Theorem B.6's error analysis)."""
    return float(sum(graph.weight(u, v) for u, v in matching))


def is_perfect_matching(graph: WeightedGraph, matching: List[Edge]) -> bool:
    """Whether the edge set is a perfect matching of the graph."""
    covered: set = set()
    for u, v in matching:
        if not graph.has_edge(u, v):
            return False
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return len(covered) == graph.num_vertices
