"""Improved all-pairs release mechanisms (follow-up work).

The Section 4 intro baselines split the budget over all ``V(V-1)/2``
pair queries.  This package implements the hub-set family from the
follow-up work of Chen–Narayanan–Xu (arXiv:2204.02335) and Ghazi et
al. (arXiv:2203.16476), which covers every pair with ``~V^{3/2}``
released values — sampled hub relay tables plus hop-local balls — for
``sqrt(V)``-type error improvements:

* :class:`~repro.apsp.hubs.HubSetRelease` — the unbounded-weight
  mechanism (hub relays + local balls over all vertices);
* :class:`~repro.apsp.bounded.HubSetBoundedRelease` — the same hub
  structure layered over Algorithm 2's k-covering for the sharper
  bounded-weight trade-off.

Both are engine-native: the exact values behind the released entries
come from local :mod:`repro.engine` CSR searches (hub rows, hop-search
balls, one bounded sweep per ball-pair source), never from an
all-pairs sweep, and the noise is drawn in vectorized Laplace blocks.
The serving layer wraps them as synopses
(:class:`repro.serving.synopsis.HubSetSynopsis` /
:class:`repro.serving.synopsis.HubBoundedSynopsis`), and the sharded
service builds its boundary relay with
:func:`~repro.apsp.hubs.build_hub_structure` over the cut vertices.
"""

from .bounded import HubSetBoundedRelease, hub_bounded_optimal_k
from .hubs import (
    HubSetRelease,
    HubStructure,
    default_ball_size,
    default_hub_count,
    hub_pair_count_bound,
    predicted_hub_scale,
)

__all__ = [
    "HubSetRelease",
    "HubSetBoundedRelease",
    "HubStructure",
    "default_hub_count",
    "default_ball_size",
    "hub_pair_count_bound",
    "predicted_hub_scale",
    "hub_bounded_optimal_k",
]
