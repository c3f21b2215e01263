"""Extension: private all-pairs distances on cycle graphs.

The paper's future-work section asks for "improved all-pairs distance
algorithms for additional classes of networks".  Cycles are the
smallest class beyond trees: they are the paper's own example of why
edge-DP fails (Section 1.3), and ring topologies are common in
transport and backbone networks.

Construction (ours, in the paper's toolbox): fix an arbitrary break
edge ``e0`` (public choice).  Release

* the Appendix-A hub hierarchy on the path ``C - e0`` with budget
  ``eps/2`` (per-prefix error ``O(log^1.5 V)/eps``), and
* the cycle's total weight ``||w||_1`` with ``Lap(2/eps)`` noise
  (sensitivity 1, budget ``eps/2``).

By basic composition the whole release is eps-DP.  For any pair
``x, y`` the cycle distance is the minimum of the clockwise and the
counter-clockwise arc, and both arcs are recovered from a prefix
difference and (for the wrapping arc) the noisy total:

    d(x, y) = min(prefix(j) - prefix(i),
                  total - (prefix(j) - prefix(i))).

Each estimate sums ``O(log V)`` noisy terms, so the per-distance error
is ``O(log^1.5 V)/eps`` — the tree bound extends to cycles.  (The
``min`` of two noisy estimates adds at most the larger of their errors;
it can only *under*-estimate, never overestimate beyond the arc error.)
"""

from __future__ import annotations

from typing import List

from ..dp.params import PrivacyParams
from ..exceptions import GraphError, PrivacyError, VertexNotFoundError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng
from .path_hierarchy import PathHierarchyRelease

__all__ = ["CycleRelease", "release_cycle_distances", "linearize_cycle"]


def linearize_cycle(graph: WeightedGraph) -> List[Vertex]:
    """Order the vertices of a cycle graph around the ring.

    Raises :class:`~repro.exceptions.GraphError` unless the graph is a
    single cycle (connected, every vertex of degree exactly 2).
    """
    if graph.directed:
        raise GraphError("cycle release requires an undirected graph")
    n = graph.num_vertices
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    if graph.num_edges != n:
        raise GraphError("a cycle on n vertices has exactly n edges")
    for v in graph.vertices():
        if graph.degree(v) != 2:
            raise GraphError(f"vertex {v!r} has degree != 2; not a cycle")
    start = next(iter(graph.vertices()))
    order = [start]
    seen = {start}
    while len(order) < n:
        tail = order[-1]
        extensions = [u for u in graph.adjacent(tail) if u not in seen]
        if not extensions:
            raise GraphError("graph is not a single cycle")
        order.append(extensions[0])
        seen.add(extensions[0])
    if not graph.has_edge(order[-1], order[0]):
        raise GraphError("graph is not a single cycle")
    return order


class CycleRelease:
    """Private all-pairs distances on a cycle (extension module)."""

    def __init__(self, graph: WeightedGraph, eps: float, rng: Rng) -> None:
        if eps <= 0:
            raise PrivacyError(f"eps must be positive, got {eps}")
        graph.check_nonnegative()
        self._order = linearize_cycle(graph)
        self._index = {v: i for i, v in enumerate(self._order)}
        self._params = PrivacyParams(eps)
        # Break the (public, arbitrary) edge between the last and first
        # vertex in the traversal; the remainder is a path.
        path = WeightedGraph()
        for a, b in zip(self._order, self._order[1:]):
            path.add_edge(a, b, graph.weight(a, b))
        # eps/2 for the hierarchy, eps/2 for the total (Lemma 3.3).
        self._hierarchy = PathHierarchyRelease(path, eps / 2.0, rng)
        self._noisy_total = graph.total_weight() + rng.laplace(2.0 / eps)

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP via basic composition)."""
        return self._params

    @property
    def noisy_total(self) -> float:
        """The released estimate of the cycle's total weight."""
        return self._noisy_total

    @property
    def hierarchy(self) -> PathHierarchyRelease:
        """The underlying hub-hierarchy release on the broken cycle."""
        return self._hierarchy

    def arc_estimates(self, x: Vertex, y: Vertex) -> tuple[float, float]:
        """Noisy estimates of the two arcs between ``x`` and ``y``
        (direct arc on the broken path; wrapping arc through the break
        edge)."""
        if x not in self._index:
            raise VertexNotFoundError(x)
        if y not in self._index:
            raise VertexNotFoundError(y)
        direct = self._hierarchy.distance(x, y)
        wrap = self._noisy_total - direct
        return direct, wrap

    def distance(self, x: Vertex, y: Vertex) -> float:
        """The released cycle distance: min of the two arc estimates."""
        if x == y:
            return 0.0
        direct, wrap = self.arc_estimates(x, y)
        return min(direct, wrap)


def release_cycle_distances(
    graph: WeightedGraph, eps: float, rng: Rng
) -> CycleRelease:
    """Release eps-DP all-pairs distances on a cycle graph with
    ``O(log^1.5 V)/eps`` per-distance error (extension; see module
    docstring)."""
    return CycleRelease(graph, eps, rng)
