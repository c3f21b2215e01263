"""Section 1.3 at toy scale: synthetic-database release of all-pairs
distances via the histogram formulation.

Section 1.3 observes that a weight function is a point in ``R^{|E|}``,
so the private edge-weight model *is* the standard histogram model and
generic machinery (there: DRV10 boosting, with a discretization to
multiples of ``tau = alpha / (2 V)``) can release all-pairs distances
with error depending on ``||w||_1`` — incomparable to the paper's
bounds, and at *exponential running time*.

This module reproduces that trade-off concretely with the simpler
exponential mechanism over the same discretized candidate space:

* candidates are all weight vectors on a ``tau``-grid in
  ``[0, M]^{|E|}`` (``(M/tau + 1)^{|E|}`` of them — genuinely
  exponential in ``|E|``, which is the point; sizes are capped);
* the quality score of a candidate ``c`` is
  ``-max_{s,t} |d_c(s,t) - d_w(s,t)|`` — the negated worst all-pairs
  distance error.  Each distance has sensitivity 1 in ``w`` and a max
  of sensitivity-1 queries is sensitivity-1, so the score has
  sensitivity 1;
* the mechanism releases the chosen synthetic weight vector; all
  downstream queries are post-processing.

Utility: within ``(2/eps) ln(|C|/gamma)`` of the best grid point, whose
own error is at most ``tau |E| / 2``-ish — so the release error is
``O(tau E + (E/eps) log(M/tau))``, with running time ``(M/tau)^E``.
The benchmarks use this to exhibit Section 1.3's "incomparable"
regimes against the paper's polynomial-time algorithms.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Tuple

from ..algorithms.shortest_paths import all_pairs_dijkstra, dijkstra
from ..algorithms.traversal import is_connected
from ..dp.exponential import ExponentialMechanism
from ..dp.params import PrivacyParams
from ..exceptions import DisconnectedGraphError, GraphError, PrivacyError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = ["HistogramRelease", "release_histogram_distances"]

_MAX_CANDIDATES = 300_000


class HistogramRelease:
    """An exponential-mechanism synthetic-graph release (toy scale)."""

    def __init__(
        self,
        graph: WeightedGraph,
        weight_bound: float,
        resolution: float,
        eps: float,
        rng: Rng,
        max_candidates: int = _MAX_CANDIDATES,
    ) -> None:
        if weight_bound <= 0:
            raise PrivacyError(
                f"weight bound must be positive, got {weight_bound}"
            )
        if resolution <= 0 or resolution > weight_bound:
            raise GraphError(
                f"resolution must be in (0, {weight_bound}], got {resolution}"
            )
        graph.check_bounded(weight_bound)
        if not is_connected(graph):
            raise DisconnectedGraphError(
                "histogram release requires a connected graph"
            )
        levels = int(math.floor(weight_bound / resolution)) + 1
        num_candidates = levels ** graph.num_edges
        if num_candidates > max_candidates:
            raise GraphError(
                f"candidate space has {num_candidates} grid points "
                f"({levels}^{graph.num_edges}); the mechanism is "
                "exponential-time by design — shrink the graph or "
                "coarsen the resolution"
            )
        self._params = PrivacyParams(eps)
        self._num_candidates = num_candidates

        true_distances = all_pairs_dijkstra(graph)
        vertices = graph.vertex_list()
        pairs = [
            (vertices[i], vertices[j])
            for i in range(len(vertices))
            for j in range(i + 1, len(vertices))
        ]

        grid = [round(i * resolution, 12) for i in range(levels)]
        candidates: List[Tuple[float, ...]] = []
        scores: List[float] = []
        for assignment in itertools.product(grid, repeat=graph.num_edges):
            candidate_graph = graph.with_weights(assignment)
            # Candidates are tiny graphs: a dict-based search per source
            # costs less than the per-call setup of a CSR sweep.
            distances = {
                s: dijkstra(candidate_graph, s)[0] for s in vertices
            }
            worst = max(
                abs(distances[s][t] - true_distances[s][t])
                for s, t in pairs
            )
            candidates.append(assignment)
            scores.append(-worst)
        mechanism = ExponentialMechanism(eps, sensitivity=1.0, rng=rng)
        chosen = mechanism.choose(candidates, scores)
        self._released_graph = graph.with_weights(chosen)
        self._released_distances = all_pairs_dijkstra(self._released_graph)

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP)."""
        return self._params

    @property
    def num_candidates(self) -> int:
        """How many grid candidates were scored (exponential in E)."""
        return self._num_candidates

    @property
    def graph(self) -> WeightedGraph:
        """The released synthetic graph — safe to publish."""
        return self._released_graph

    def distance(self, source: Vertex, target: Vertex) -> float:
        """All-pairs distance from the released synthetic graph."""
        return self._released_distances[source][target]


def release_histogram_distances(
    graph: WeightedGraph,
    weight_bound: float,
    resolution: float,
    eps: float,
    rng: Rng,
    max_candidates: int = _MAX_CANDIDATES,
) -> HistogramRelease:
    """Run the Section 1.3-style synthetic-database release (toy scale;
    exponential in ``|E|`` by design — see module docstring)."""
    return HistogramRelease(
        graph, weight_bound, resolution, eps, rng, max_candidates
    )
