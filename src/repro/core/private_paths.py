"""Algorithm 3: private shortest paths (Section 5.2).

The mechanism releases, for every edge,

    w'(e) = w(e) + Lap(1/eps) + (1/eps) * log(E / gamma)

and defines the approximate shortest path between any pair as the exact
shortest path under ``w'``.  The additive offset biases the release
*upward*, introducing a preference for few-hop paths: conditioned on the
high-probability event that every noise variable has magnitude at most
``(1/eps) log(E/gamma)``,

    w(e)  <=  w'(e)  <=  w(e) + (2/eps) log(E/gamma),

so any ``k``-hop path's released weight is within ``(2k/eps)
log(E/gamma)`` of its true weight, and the released path beats every
alternative path ``Q'`` up to ``(2 l(Q') / eps) log(E/gamma)``
(Theorem 5.5).  Since every shortest path has fewer than ``V`` hops,
the worst case is ``(2V/eps) log(E/gamma)`` (Corollary 5.6) — matching
the Omega(V) lower bound of Section 5.1 up to the log factor.

One release answers *all pairs* with no extra privacy cost: privacy is
spent once on ``w'`` and everything else is post-processing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..algorithms.shortest_paths import dijkstra, dijkstra_path, reconstruct_path
from ..dp.mechanisms import LaplaceMechanism
from ..dp.params import PrivacyParams
from ..exceptions import PrivacyError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = ["PrivatePathsRelease", "release_private_paths"]


class PrivatePathsRelease:
    """The Algorithm 3 release: a biased noisy graph plus path queries.

    Parameters
    ----------
    graph:
        The true weighted graph (weights must be nonnegative).
    eps:
        The privacy budget (pure DP).
    gamma:
        The failure probability used in the hop-penalty offset
        ``(1/eps) log(E/gamma)``; with probability ``1 - gamma`` the
        Theorem 5.5 guarantee holds simultaneously for all pairs.
    hop_bias:
        If ``False``, the offset is omitted.  This is *still* eps-DP
        (the offset is data-independent) and recovers the plain
        synthetic-graph path release; benchmarks use it as an ablation
        of the paper's bias trick.
    sensitivity_unit:
        The neighboring-relation unit (Section 1.2's Scaling remark).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eps: float,
        gamma: float,
        rng: Rng,
        hop_bias: bool = True,
        sensitivity_unit: float = 1.0,
    ) -> None:
        if not 0.0 < gamma < 1.0:
            raise PrivacyError(f"gamma must be in (0, 1), got {gamma}")
        graph.check_nonnegative()
        self._params = PrivacyParams(eps)
        self._gamma = gamma
        self._offset = (
            (sensitivity_unit / eps) * math.log(graph.num_edges / gamma)
            if hop_bias
            else 0.0
        )
        mechanism = LaplaceMechanism(
            sensitivity=sensitivity_unit, eps=eps, rng=rng
        )
        noisy = mechanism.release_vector(graph.weight_vector()) + self._offset
        # Clamp at zero so Dijkstra always applies.  Conditioned on the
        # event of Theorem 5.5 no weight is negative and clamping is a
        # no-op; outside that event clamping is harmless post-processing.
        self._released = graph.with_weights(noisy.clip(min=0.0))

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP)."""
        return self._params

    @property
    def gamma(self) -> float:
        """The failure probability the offset was tuned for."""
        return self._gamma

    @property
    def offset(self) -> float:
        """The hop-penalty offset ``(1/eps) log(E/gamma)`` added to every
        edge (0 when ``hop_bias=False``)."""
        return self._offset

    @property
    def graph(self) -> WeightedGraph:
        """The released graph ``(G, w')`` — safe to publish as-is."""
        return self._released

    def path(self, source: Vertex, target: Vertex) -> List[Vertex]:
        """The released path: a shortest path under ``w'``."""
        path, _ = dijkstra_path(self._released, source, target)
        return path

    def path_with_released_weight(  # privlint: ignore[PL1] exact Dijkstra over the already-noised released graph; post-processing is privacy-free
        self, source: Vertex, target: Vertex
    ) -> Tuple[List[Vertex], float]:
        """The released path together with its ``w'`` weight."""
        return dijkstra_path(self._released, source, target)

    def paths_from(self, source: Vertex) -> Dict[Vertex, List[Vertex]]:  # privlint: ignore[PL1] exact Dijkstra over the already-noised released graph; post-processing is privacy-free
        """Released paths from one source to every reachable vertex."""
        distances, parents = dijkstra(self._released, source)
        return {
            target: reconstruct_path(parents, source, target)
            for target in distances
        }

    def all_pairs_paths(
        self,
    ) -> Dict[Vertex, Dict[Vertex, List[Vertex]]]:
        """Released paths between every pair — one privacy budget pays
        for all of them (Theorem 5.5's "releases paths between all
        pairs" remark)."""
        return {
            source: self.paths_from(source)
            for source in self._released.vertices()
        }


def release_private_paths(
    graph: WeightedGraph,
    eps: float,
    gamma: float,
    rng: Rng,
    hop_bias: bool = True,
    sensitivity_unit: float = 1.0,
) -> PrivatePathsRelease:
    """Run Algorithm 3 and return the release object."""
    return PrivatePathsRelease(
        graph,
        eps,
        gamma,
        rng,
        hop_bias=hop_bias,
        sensitivity_unit=sensitivity_unit,
    )
