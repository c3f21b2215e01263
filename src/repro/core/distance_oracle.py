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

from typing import Dict, Tuple

import numpy as np

from ..algorithms.shortest_paths import dijkstra
from ..dp.composition import composed_noise_scale
from ..dp.mechanisms import LaplaceMechanism
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..engine.frontier import is_weakly_connected
from ..engine.kernels import kernel_span, multi_source_distances
from ..exceptions import DisconnectedGraphError, PrivacyError
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
    accounting — used by the release classes, the all-pairs synopsis
    and mechanism auto-selection (which contests this scale against
    the hub mechanisms').
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
    graph.check_nonnegative()
    distances, _ = dijkstra(graph, source, target=target)
    if target not in distances:
        raise DisconnectedGraphError(
            f"no path from {source!r} to {target!r}"
        )
    mechanism = LaplaceMechanism(sensitivity=1.0, eps=eps, rng=rng)
    return mechanism.release_scalar(distances[target])


class _AllPairsReleaseBase:
    """Shared machinery: exact all-pairs distances plus noisy answers.

    The exact distances are one engine sweep from every vertex (one
    ``V x V`` matrix) and the noise is one vectorized Laplace draw over
    its upper triangle, in the graph's vertex order.  The sweep is the
    release's entire computational cost.
    """

    def __init__(
        self, graph: WeightedGraph, params: PrivacyParams, rng: Rng
    ) -> None:
        self._csr = CSRGraph.from_graph(graph)
        if not is_weakly_connected(self._csr):
            raise DisconnectedGraphError(
                "all-pairs release requires a connected graph"
            )
        graph.check_nonnegative()
        self._graph = graph
        self._params = params
        n = self._csr.n
        self._scale = all_pairs_noise_scale(n, params.eps, params.delta)
        with kernel_span("engine.all_pairs", sources=n):
            self._exact = multi_source_distances(
                self._csr, np.arange(n, dtype=np.int64)
            )
        iu, ju = np.triu_indices(n, k=1)
        values = self._exact[iu, ju] + rng.laplace_vector(
            self._scale, len(iu)
        )
        vertices = self._csr.vertices
        self._noisy: Dict[Tuple[Vertex, Vertex], float] = {
            (vertices[i], vertices[j]): v
            for i, j, v in zip(iu.tolist(), ju.tolist(), values.tolist())
        }

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee of the whole release."""
        return self._params

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
        i, j = self._csr.index_of(source), self._csr.index_of(target)
        if i == j:
            return 0.0
        vertices = self._csr.vertices
        return self._noisy[(vertices[min(i, j)], vertices[max(i, j)])]

    def exact_distance(self, source: Vertex, target: Vertex) -> float:
        """The true distance (for error measurement; not private)."""
        return float(
            self._exact[
                self._csr.index_of(source), self._csr.index_of(target)
            ]
        )

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
        super().__init__(graph, PrivacyParams(eps), rng)


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
        if delta <= 0:
            raise PrivacyError(
                f"advanced composition requires delta > 0, got {delta}"
            )
        # The whole delta is reserved for the composition slack delta'.
        super().__init__(graph, PrivacyParams(eps, delta), rng)
