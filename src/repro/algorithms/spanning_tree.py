"""Minimum spanning trees (Appendix B.1's exact substrate).

Theorem B.3's mechanism adds Laplace noise to every weight and then
releases the *exact* MST of the noised graph, so we need exact MST
algorithms that tolerate the negative weights the noise can produce.
Both Kruskal (via union–find) and Prim are provided; they agree on
total weight and serve as mutual cross-checks in the tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Tuple

from ..exceptions import DisconnectedGraphError, VertexNotFoundError
from ..graphs.graph import Edge, Vertex, WeightedGraph

__all__ = ["UnionFind", "kruskal_mst", "prim_mst", "spanning_tree_weight"]


class UnionFind:
    """Disjoint-set forest with union by rank and path compression."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Register an item as its own singleton set (no-op if known)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Hashable) -> Hashable:
        """The canonical representative of the item's set."""
        if item not in self._parent:
            raise KeyError(f"{item!r} is not in the union-find structure")
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns ``True`` if a merge happened, ``False`` if they were
        already together.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def together(self, a: Hashable, b: Hashable) -> bool:
        """Whether two items are in the same set."""
        return self.find(a) == self.find(b)

    def __len__(self) -> int:
        return len(self._parent)


def kruskal_mst(graph: WeightedGraph) -> List[Edge]:
    """The minimum spanning tree by Kruskal's algorithm.

    Returns the canonical edge keys of the tree.  Negative weights are
    fine (Appendix B allows them).  Raises
    :class:`~repro.exceptions.DisconnectedGraphError` when no spanning
    tree exists.
    """
    edges = sorted(graph.edges(), key=lambda item: item[2])
    forest = UnionFind(graph.vertices())
    tree: List[Edge] = []
    for u, v, _ in edges:
        if forest.union(u, v):
            key = graph.edge_key(u, v)
            assert key is not None
            tree.append(key)
    if len(tree) != graph.num_vertices - 1:
        raise DisconnectedGraphError(
            "graph is disconnected; no spanning tree exists"
        )
    return tree


def prim_mst(graph: WeightedGraph, start: Vertex | None = None) -> List[Edge]:  # privlint: ignore[PL1] exact algorithm over whatever graph the caller hands it; nothing in the library calls it, and the private MST release runs kruskal_mst on the noised graph
    """The minimum spanning tree by Prim's algorithm (heap-based)."""
    if graph.num_vertices == 0:
        return []
    if start is None:
        start = next(iter(graph.vertices()))
    elif not graph.has_vertex(start):
        raise VertexNotFoundError(start)
    in_tree = {start}
    tree: List[Edge] = []
    counter = 0
    heap: List[Tuple[float, int, Vertex, Vertex]] = []
    for u, w in graph.neighbors(start):
        heap.append((w, counter, start, u))
        counter += 1
    heapq.heapify(heap)
    while heap and len(in_tree) < graph.num_vertices:
        w, _, parent, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        key = graph.edge_key(parent, v)
        assert key is not None
        tree.append(key)
        for u, weight in graph.neighbors(v):
            if u not in in_tree:
                counter += 1
                heapq.heappush(heap, (weight, counter, v, u))
    if len(tree) != graph.num_vertices - 1:
        raise DisconnectedGraphError(
            "graph is disconnected; no spanning tree exists"
        )
    return tree


def spanning_tree_weight(graph: WeightedGraph, tree: Iterable[Edge]) -> float:
    """The total weight ``w(T)`` of a spanning tree's edges, evaluated
    against this graph's (possibly different) weight function.

    Theorem B.3's error analysis evaluates the *noised* MST under the
    *true* weights; this helper performs exactly that evaluation.
    """
    return float(sum(graph.weight(u, v) for u, v in tree))
