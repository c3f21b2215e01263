"""Hub-set release layered over Algorithm 2's covering (bounded weights).

With weights in ``[0, M]``, Algorithm 2 (Section 4.2) fixes a
k-covering ``Z`` and answers every query through the assigned covering
vertices, paying ``2kM`` covering detour plus noise on the ``|Z|^2``
covering pairs.  The follow-up hub construction slots in as the
*inner* mechanism: instead of releasing all ``|Z|^2`` covering-pair
distances, run the hub structure of :mod:`repro.apsp.hubs` over the
covering vertices — ``~|Z|^{3/2}`` released entries instead of
``|Z|^2``.

That changes the optimal balance.  Algorithm 2's pure regime picks
``k ~ (V^2/(M eps))^{1/3}`` for ``O((VM)^{2/3})`` error; with the hub
inner mechanism the noise term drops to ``~(V/k)^{3/2}/eps`` (pure) or
``~(V/k)^{3/4}/eps`` (advanced composition), so the detour/noise
balance lands at a smaller ``k`` and a lower total error — the
sharper low-weight bounds of the follow-up work
(:func:`hub_bounded_optimal_k`).
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..core.bounded_weight import _CoveringRelease
from ..engine.kernels import multi_source_distances
from ..exceptions import GraphError, PrivacyError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng
from .hubs import (
    HubStructure,
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)

__all__ = ["HubSetBoundedRelease", "hub_bounded_optimal_k"]


def hub_bounded_optimal_k(
    num_vertices: int, weight_bound: float, eps: float, delta: float = 0.0
) -> int:
    """The covering radius balancing detour against hub noise.

    The covering detour costs ``2kM``; the hub structure over the
    ``|Z| <= V/(k+1)`` covering vertices costs noise
    ``~2 (V/k)^{3/2}/eps`` (pure) or
    ``~2 (V/k)^{3/4} sqrt(ln 1/delta)/eps`` (advanced composition).
    Equating the two gives ``k ~ (V^{3/2}/(M eps))^{2/5}`` and
    ``k ~ (V^{3/4} sqrt(ln 1/delta)/(M eps))^{4/7}`` respectively —
    smaller radii (hence lower total error) than Algorithm 2's
    ``(V^2/(M eps))^{1/3}`` and ``sqrt(V/(M eps))`` optima.
    """
    if num_vertices <= 0:
        raise GraphError(
            f"need a positive vertex count, got {num_vertices}"
        )
    if weight_bound <= 0:
        raise PrivacyError(
            f"weight bound M must be positive, got {weight_bound}"
        )
    if eps <= 0:
        raise PrivacyError(f"eps must be positive, got {eps}")
    v = float(num_vertices)
    if delta > 0:
        k = (
            v ** 0.75
            * math.sqrt(math.log(1.0 / delta))
            / (weight_bound * eps)
        ) ** (4.0 / 7.0)
    else:
        k = (v ** 1.5 / (weight_bound * eps)) ** 0.4
    # Lemma 4.4 needs V >= k + 1, so a lone vertex gets radius 0.
    return min(max(1, round(k)), num_vertices - 1)


class HubSetBoundedRelease(_CoveringRelease):
    """Algorithm 2's covering with the hub structure as inner release.

    Parameters
    ----------
    graph:
        Connected graph with weights in ``[0, weight_bound]``.
    weight_bound:
        The public bound ``M`` on edge weights.
    eps, delta:
        The privacy budget (spent entirely on the inner hub release —
        the covering and assignment depend only on public topology).
    k:
        Covering radius; defaults to :func:`hub_bounded_optimal_k`.
    covering:
        Explicit covering set (validated); defaults to the Lemma 4.4
        construction.
    hub_count, ball_size:
        Inner hub-structure overrides (defaults ``~sqrt(|Z|)``).
    """

    _what = "hub-bounded"
    default_radius = staticmethod(hub_bounded_optimal_k)

    def __init__(
        self,
        graph: WeightedGraph,
        weight_bound: float,
        eps: float,
        rng: Rng,
        delta: float = 0.0,
        k: int | None = None,
        covering: List[Vertex] | None = None,
        hub_count: int | None = None,
        ball_size: int | None = None,
    ) -> None:
        super().__init__(graph, weight_bound, eps, delta, k, covering)
        covering = self._covering
        site_idx = self._csr.indices_of(covering)
        m = len(covering)
        h = default_hub_count(m) if hub_count is None else hub_count
        b = default_ball_size(m) if ball_size is None else ball_size
        self._structure = build_hub_structure(
            self._csr, site_idx, h, b, eps, delta, rng
        )
        self._site_of = {v: i for i, v in enumerate(covering)}

    @property
    def vertex_order(self) -> tuple:
        """Vertices in CSR compilation order (what the synopsis keys
        its assignment table by)."""
        return self._csr.vertices

    @property
    def structure(self) -> HubStructure:
        """The released inner hub structure over the covering."""
        return self._structure

    @property
    def hubs(self) -> List[Vertex]:
        """The hub vertices sampled from the covering set."""
        return [
            self._covering[int(p)]
            for p in self._structure.hub_positions
        ]

    @property
    def noise_scale(self) -> float:
        """The Laplace scale applied to each released entry."""
        return self._structure.noise_scale

    @property
    def released_pair_count(self) -> int:
        """Distinct covering-pair queries the release paid for."""
        return self._structure.pair_count

    def assignment(self) -> Dict[Vertex, Vertex]:
        """The full (public) covering assignment ``v -> z(v)``."""
        return dict(self._assignment)

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The released estimate ``hub(z(u), z(v))``.

        Error: at most ``2kM`` covering detour plus the inner hub
        structure's noise and relay error.
        """
        zu = self.assigned_covering_vertex(source)
        zv = self.assigned_covering_vertex(target)
        if zu == zv:
            return 0.0
        return self._structure.estimate(
            self._site_of[zu], self._site_of[zv]
        )

    def exact_covering_distance(  # privlint: ignore[PL1] analyst-side error measurement against the true distance; not part of the release
        self, y: Vertex, z: Vertex
    ) -> float:
        """The true distance between two covering vertices (for error
        measurement; not private), from one source row swept on
        demand."""
        for vertex in (y, z):
            if vertex not in self._site_of:
                raise GraphError(
                    f"{vertex!r} is not a covering vertex of this "
                    "release"
                )
        row = multi_source_distances(self._csr, [self._csr.index_of(y)])
        return float(row[0, self._csr.index_of(z)])
