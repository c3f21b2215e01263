"""Distance oracles (Section 4, introduction).

A single distance query ``d_w(s, t)`` has sensitivity 1 — neighboring
weight functions change any path's weight by at most the L1 budget of 1,
hence the minimum over paths by at most 1 — so the Laplace mechanism
answers it with ``Lap(1/eps)`` noise (:func:`private_distance`).

For *all-pairs* distances the paper's intro gives two baselines, both
implemented here:

* :class:`AllPairsBasicRelease` — pure eps-DP via basic composition
  over the ``V^2`` pair queries: ``Lap(V^2/eps)`` noise per answer.
  (Equivalently: the vector of all pairwise distances has L1
  sensitivity at most ``V^2``.)
* :class:`AllPairsAdvancedRelease` — ``(eps, delta)``-DP via advanced
  composition (Lemma 3.4): per-query noise ``O(V sqrt(ln 1/delta))/eps``.

These are the ``~V/eps``-error baselines that Sections 4.1 and 4.2 then
beat for trees and bounded-weight graphs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..algorithms.shortest_paths import all_pairs_dijkstra, dijkstra
from ..algorithms.traversal import is_connected
from ..dp.composition import composed_noise_scale
from ..dp.mechanisms import LaplaceMechanism
from ..dp.params import PrivacyParams
from ..exceptions import (
    DisconnectedGraphError,
    PrivacyError,
    VertexNotFoundError,
)
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = [
    "private_distance",
    "all_pairs_noise_scale",
    "AllPairsBasicRelease",
    "AllPairsAdvancedRelease",
]


def all_pairs_noise_scale(
    num_vertices: int, eps: float, delta: float = 0.0
) -> float:
    """The per-answer Laplace scale of the intro all-pairs baselines.

    The ``P = V(V-1)/2`` distinct unordered pair queries priced by the
    shared :func:`~repro.dp.composition.composed_noise_scale`
    accounting — used by the release classes, the engine-native
    synopsis builder, and mechanism auto-selection (which contests
    this scale against the hub mechanisms').
    """
    return composed_noise_scale(
        num_vertices * (num_vertices - 1) // 2, eps, delta
    )


def private_distance(
    graph: WeightedGraph,
    source: Vertex,
    target: Vertex,
    eps: float,
    rng: Rng,
) -> float:
    """Release a single distance with ``Lap(1/eps)`` noise.

    This is the straightforward application of the Laplace mechanism
    mentioned in Section 1.2: one sensitivity-1 query, eps-DP.
    """
    distances, _ = dijkstra(graph, source, target=target)
    if target not in distances:
        raise DisconnectedGraphError(
            f"no path from {source!r} to {target!r}"
        )
    mechanism = LaplaceMechanism(sensitivity=1.0, eps=eps, rng=rng)
    return mechanism.release_scalar(distances[target])


def _ordered_pairs(vertices: List[Vertex]) -> Iterator[Tuple[Vertex, Vertex]]:
    """Yield the unordered vertex pairs lazily — ``V^2/2`` tuples never
    exist at once, only the noisy answer dict does."""
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            yield vertices[i], vertices[j]


class _AllPairsReleaseBase:
    """Shared machinery: exact all-pairs distances plus noisy answers.

    The exact sweep is the release's entire computational cost.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        if not is_connected(graph):
            raise DisconnectedGraphError(
                "all-pairs release requires a connected graph"
            )
        self._graph = graph
        self._vertices = graph.vertex_list()
        self._exact = all_pairs_dijkstra(graph)
        self._noisy: Dict[Tuple[Vertex, Vertex], float] = {}
        self._scale = 0.0  # set by _populate

    def _populate(self, noise_scale: float, rng: Rng) -> None:
        self._scale = float(noise_scale)
        n = len(self._vertices)
        noise = rng.laplace_vector(noise_scale, n * (n - 1) // 2)
        for (s, t), x in zip(_ordered_pairs(self._vertices), noise):
            self._noisy[(s, t)] = self._exact[s][t] + float(x)

    @property
    def graph(self) -> WeightedGraph:
        """The (public-topology) graph the release was computed on."""
        return self._graph

    @property
    def noise_scale(self) -> float:
        """The Laplace scale applied to each pairwise distance."""
        return self._scale

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The released (noisy) distance between a pair of vertices.

        Symmetric; a vertex's distance to itself is released as exactly
        0 (it is data-independent, so this leaks nothing).
        """
        if source not in self._exact:
            raise VertexNotFoundError(source)
        if target not in self._exact:
            raise VertexNotFoundError(target)
        if source == target:
            return 0.0
        if (source, target) in self._noisy:
            return self._noisy[(source, target)]
        return self._noisy[(target, source)]

    def exact_distance(self, source: Vertex, target: Vertex) -> float:
        """The true distance (for error measurement; not private)."""
        return self._exact[source][target]

    def all_released(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """All released pairwise distances keyed by vertex pair."""
        return dict(self._noisy)


class AllPairsBasicRelease(_AllPairsReleaseBase):
    """Pure-DP all-pairs distances via basic composition.

    Adds ``Lap(Q/eps)`` noise to each of the ``Q = V(V-1)/2`` distinct
    pair queries.  (The paper's intro counts ``V^2`` ordered pairs; the
    unordered count is a factor-2 saving with the identical argument:
    the query vector has L1 sensitivity ``Q``.)
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eps: float,
        rng: Rng,
    ) -> None:
        super().__init__(graph)
        self._params = PrivacyParams(eps)
        self._scale = all_pairs_noise_scale(len(self._vertices), eps)
        self._populate(self._scale, rng)

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee of the whole release."""
        return self._params


class AllPairsAdvancedRelease(_AllPairsReleaseBase):
    """``(eps, delta)``-DP all-pairs distances via advanced composition.

    Each pair query is answered with ``Lap(1/eps_q)`` noise where
    ``eps_q`` is the largest per-query budget whose ``Q``-fold advanced
    composition (Lemma 3.4) stays within ``(eps, delta)``.  The paper's
    asymptotic form of the resulting scale is
    ``O(V sqrt(ln 1/delta))/eps``.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eps: float,
        delta: float,
        rng: Rng,
    ) -> None:
        super().__init__(graph)
        if delta <= 0:
            raise PrivacyError(
                f"advanced composition requires delta > 0, got {delta}"
            )
        self._params = PrivacyParams(eps, delta)
        # The whole delta is reserved for the composition slack delta'.
        self._scale = all_pairs_noise_scale(
            len(self._vertices), eps, delta
        )
        self._populate(self._scale, rng)

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee of the whole release."""
        return self._params
