"""The synthetic-graph release (Section 4, introduction).

"The other natural approach is to release an eps-differentially private
version of the graph by adding ``Lap(1/eps)`` noise to each edge."  The
weight vector ``w`` has L1 sensitivity 1 between neighbors by
definition, so this is one application of the Laplace mechanism; every
downstream computation (distances, paths, anything) is post-processing
and therefore free.

With probability ``1 - gamma`` all ``E`` noise variables have magnitude
at most ``(1/eps) log(E/gamma)``, so every path's length moves by at
most ``(V/eps) log(E/gamma)`` — the ``~V/eps`` all-pairs baseline that
the tree and bounded-weight algorithms improve on.

Noisy weights can be negative, which would break Dijkstra.  The release
clamps weights at zero by default: clamping is post-processing (no
privacy cost) and can only move a noisy weight *closer* to the true
nonnegative weight (``|max(0, w + X) - w| <= |X|`` when ``w >= 0``), so
the error bound is preserved.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algorithms.shortest_paths import all_pairs_dijkstra, dijkstra_path
from ..dp.mechanisms import LaplaceMechanism
from ..dp.params import PrivacyParams
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = ["SyntheticGraphRelease", "release_synthetic_graph"]


class SyntheticGraphRelease:
    """A privately released copy of the graph with noisy weights.

    The released object is the noisy graph itself (public); query
    methods are conveniences that post-process it.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eps: float,
        rng: Rng,
        clamp_at_zero: bool = True,
        sensitivity_unit: float = 1.0,
    ) -> None:
        graph.check_nonnegative()
        self._params = PrivacyParams(eps)
        self._eps = eps
        mechanism = LaplaceMechanism(
            sensitivity=sensitivity_unit, eps=eps, rng=rng
        )
        noisy = mechanism.release_vector(graph.weight_vector())
        if clamp_at_zero:
            noisy = noisy.clip(min=0.0)
        self._released = graph.with_weights(noisy)

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP)."""
        return self._params

    @property
    def graph(self) -> WeightedGraph:
        """The released noisy graph — safe to publish as-is."""
        return self._released

    def distance(self, source: Vertex, target: Vertex) -> float:  # privlint: ignore[PL1] exact Dijkstra over the already-noised released graph; post-processing is privacy-free
        """Noisy distance estimate via exact Dijkstra on the release."""
        _, weight = dijkstra_path(self._released, source, target)
        return weight

    def shortest_path(  # privlint: ignore[PL1] exact Dijkstra over the already-noised released graph; post-processing is privacy-free
        self, source: Vertex, target: Vertex
    ) -> Tuple[List[Vertex], float]:
        """A path that is shortest *in the released graph*, and its
        released weight.  Its true weight is obtained by evaluating the
        path on the original graph (post-processing on the analyst's
        side)."""
        return dijkstra_path(self._released, source, target)

    def all_pairs_distances(self) -> Dict[Vertex, Dict[Vertex, float]]:  # privlint: ignore[PL1] exact sweep over the already-noised released graph; post-processing is privacy-free
        """Noisy all-pairs distances from the released graph."""
        return all_pairs_dijkstra(self._released)


def release_synthetic_graph(
    graph: WeightedGraph,
    eps: float,
    rng: Rng,
    clamp_at_zero: bool = True,
    sensitivity_unit: float = 1.0,
) -> SyntheticGraphRelease:
    """Release a noisy synthetic graph under eps-DP.

    ``sensitivity_unit`` implements the Scaling remark of Section 1.2:
    if a single individual can influence the weights by at most ``u`` in
    L1 (instead of 1), pass ``sensitivity_unit=u`` and the noise — and
    hence all error bounds — scale by ``u``.
    """
    return SyntheticGraphRelease(
        graph,
        eps,
        rng,
        clamp_at_zero=clamp_at_zero,
        sensitivity_unit=sensitivity_unit,
    )
