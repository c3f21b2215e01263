"""Appendix A: private all-pairs distances on the path graph.

The path graph ``P`` on vertices ``0..V-1`` is the paper's bridge to
query release of threshold functions: ``d(0, x)`` is a prefix sum of
edge weights, so releasing all-pairs path distances is the [DNPR10]
continual-counter problem restated (Theorem A.1).

The construction designates hub sets ``S_0 supset S_1 supset ...`` of
geometrically increasing spacing and releases the noisy distance
between each pair of *consecutive* hubs at each level.  With base-2
spacing the consecutive-hub segments are exactly the dyadic intervals
``[j * 2^i, (j+1) * 2^i)`` of edge indices, which is the form
implemented here:

* each edge index lies in exactly one segment per level, so the full
  query vector has sensitivity ``L`` (the number of levels) and
  ``Lap(L/eps)`` noise per segment makes the release eps-DP;
* every prefix ``[0, x)`` decomposes into at most ``L`` released
  segments (binary decomposition), so ``d(x, y) = prefix(y) -
  prefix(x)`` sums at most ``2L`` noisy terms — by Lemma 3.1 the error
  is ``O(log^1.5 V * log(1/gamma))/eps`` per distance (Theorem A.1),
  matching the tree algorithm of Section 4.1.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..dp.params import PrivacyParams
from ..exceptions import GraphError, PrivacyError, VertexNotFoundError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = ["PathHierarchyRelease", "release_path_hierarchy", "linearize_path"]


def linearize_path(graph: WeightedGraph) -> List[Vertex]:
    """Order the vertices of a path graph end to end.

    Raises :class:`~repro.exceptions.GraphError` unless the graph is a
    path (connected, two endpoints of degree 1, the rest degree 2).
    """
    if graph.directed:
        raise GraphError("path hierarchy requires an undirected graph")
    n = graph.num_vertices
    if n == 0:
        raise GraphError("empty graph is not a path")
    if n == 1:
        return graph.vertex_list()
    if graph.num_edges != n - 1:
        raise GraphError("a path on n vertices has exactly n - 1 edges")
    endpoints = [v for v in graph.vertices() if graph.degree(v) == 1]
    if len(endpoints) != 2:
        raise GraphError("a path graph must have exactly two endpoints")
    order = [endpoints[0]]
    seen = {endpoints[0]}
    while len(order) < n:
        tail = order[-1]
        extensions = [u for u in graph.adjacent(tail) if u not in seen]
        if len(extensions) != 1:
            raise GraphError("graph is not a path (branch detected)")
        order.append(extensions[0])
        seen.add(extensions[0])
    return order


class PathHierarchyRelease:
    """The Appendix A hub-hierarchy release for a path graph."""

    def __init__(self, graph: WeightedGraph, eps: float, rng: Rng) -> None:
        if eps <= 0:
            raise PrivacyError(f"eps must be positive, got {eps}")
        graph.check_nonnegative()
        self._order = linearize_path(graph)
        self._index = {v: i for i, v in enumerate(self._order)}
        self._params = PrivacyParams(eps)
        edge_weights = [
            graph.weight(self._order[i], self._order[i + 1])
            for i in range(len(self._order) - 1)
        ]
        num_edges = len(edge_weights)
        # Number of levels: dyadic segment lengths 2^0 .. 2^(L-1).
        self._levels = max(1, num_edges.bit_length()) if num_edges else 1
        self._scale = self._levels / eps
        # Prefix sums of true weights for O(1) segment sums.
        prefix = [0.0]
        for w in edge_weights:
            prefix.append(prefix[-1] + w)
        self._segments: Dict[Tuple[int, int], float] = {}
        for level in range(self._levels):
            length = 1 << level
            start = 0
            while start + length <= num_edges:
                true_sum = prefix[start + length] - prefix[start]
                self._segments[(level, start)] = true_sum + rng.laplace(
                    self._scale
                )
                start += length

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP)."""
        return self._params

    @property
    def num_levels(self) -> int:
        """The number of hub levels ``L ~ log2 V`` (= the sensitivity of
        the released query vector)."""
        return self._levels

    @property
    def noise_scale(self) -> float:
        """The per-segment Laplace scale ``L/eps``."""
        return self._scale

    @property
    def num_segments(self) -> int:
        """How many noisy segment sums were released (< 2E)."""
        return len(self._segments)

    def _decompose(self, upto: int) -> List[Tuple[int, int]]:
        """Dyadic segments covering edge indices ``[0, upto)``; at most
        one per level (binary decomposition of ``upto``)."""
        segments: List[Tuple[int, int]] = []
        start = 0
        for level in reversed(range(self._levels)):
            length = 1 << level
            if start + length <= upto:
                segments.append((level, start))
                start += length
        assert start == upto
        return segments

    def prefix_estimate(self, position: int) -> Tuple[float, int]:
        """Noisy estimate of ``d(order[0], order[position])`` and the
        number of noisy terms it summed."""
        if not 0 <= position < len(self._order):
            raise GraphError(
                f"position {position} outside path of {len(self._order)} "
                "vertices"
            )
        segments = self._decompose(position)
        return sum(self._segments[s] for s in segments), len(segments)

    def distance(self, x: Vertex, y: Vertex) -> float:
        """The released estimate of ``d_w(x, y)``."""
        if x not in self._index:
            raise VertexNotFoundError(x)
        if y not in self._index:
            raise VertexNotFoundError(y)
        i, j = sorted((self._index[x], self._index[y]))
        # d(x, y) = prefix(j) - prefix(i); cancelling shared segments
        # would reduce error further, but the plain difference is what
        # the analysis bounds, and shared segments cancel exactly anyway
        # when both decompositions contain them.
        hi, _ = self.prefix_estimate(j)
        lo, _ = self.prefix_estimate(i)
        return hi - lo

    def max_terms_per_distance(self) -> int:
        """The worst-case number of noisy terms a distance estimate can
        sum (``<= 2L``), for validating the Theorem A.1 analysis."""
        return 2 * self._levels


def release_path_hierarchy(
    graph: WeightedGraph, eps: float, rng: Rng
) -> PathHierarchyRelease:
    """Run the Appendix A release (Theorem A.1) on a path graph."""
    return PathHierarchyRelease(graph, eps, rng)
