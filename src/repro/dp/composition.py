"""Composition theorems (Lemmas 3.3 and 3.4).

Basic composition: ``k`` adaptive ``(eps, delta)``-DP mechanisms compose
to ``(k eps, k delta)``-DP.

Advanced composition (Dwork–Rothblum–Vadhan): they also compose to
``(eps', k delta + delta')``-DP with

    eps' = sqrt(2 k ln(1/delta')) * eps + k * eps * (e^eps - 1).

The inverse direction — given a target total ``eps'``, what per-query
``eps`` may each of ``k`` queries use? — is what the all-pairs distance
baseline of Section 4 and Algorithm 2 need, so it is provided as
:func:`advanced_composition_epsilon_per_query` (solved numerically; the
paper's ``eps = O(eps'/sqrt(k ln(1/delta')))`` is the asymptotic form).
"""

from __future__ import annotations

import math

from ..exceptions import PrivacyError
from .params import PrivacyParams

__all__ = [
    "basic_composition",
    "advanced_composition",
    "advanced_composition_epsilon_per_query",
    "composed_noise_scale",
]


def basic_composition(params: PrivacyParams, k: int) -> PrivacyParams:
    """Lemma 3.3: the guarantee after ``k`` adaptive runs."""
    if k <= 0:
        raise PrivacyError(f"k must be positive, got {k}")
    return PrivacyParams(params.eps * k, min(params.delta * k, 1.0 - 1e-15))


def advanced_composition(
    params: PrivacyParams, k: int, delta_prime: float
) -> PrivacyParams:
    """Lemma 3.4: the guarantee after ``k`` adaptive runs, spending an
    extra failure probability ``delta'``."""
    if k <= 0:
        raise PrivacyError(f"k must be positive, got {k}")
    if not 0.0 < delta_prime < 1.0:
        raise PrivacyError(
            f"delta_prime must be in (0, 1), got {delta_prime}"
        )
    eps = params.eps
    total_eps = math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * eps + (
        k * eps * (math.exp(eps) - 1.0)
    )
    total_delta = min(k * params.delta + delta_prime, 1.0 - 1e-15)
    return PrivacyParams(total_eps, total_delta)


def composed_noise_scale(
    num_queries: int, eps: float, delta: float = 0.0
) -> float:
    """The per-answer Laplace scale for ``num_queries`` sensitivity-1
    queries under one ``(eps, delta)`` budget.

    ``delta = 0``: the query vector has L1 sensitivity at most
    ``num_queries``, so ``Lap(num_queries/eps)`` per entry is eps-DP
    (equivalently, basic composition).  ``delta > 0``: ``Lap(1/eps_q)``
    with ``eps_q`` from the Lemma 3.4 inverse.  This is the one shared
    accounting behind the all-pairs baselines, Algorithm 2's covering
    table, the hub-set releases, and mechanism auto-selection — change
    it here and every consumer moves together.
    """
    q = max(num_queries, 1)
    if delta > 0:
        return 1.0 / advanced_composition_epsilon_per_query(
            total_eps=eps, k=q, delta_prime=delta
        )
    return q / eps


def advanced_composition_epsilon_per_query(
    total_eps: float, k: int, delta_prime: float
) -> float:
    """The largest per-query ``eps`` whose k-fold advanced composition
    stays within ``total_eps``.

    Solves ``sqrt(2 k ln(1/delta')) x + k x (e^x - 1) = total_eps`` for
    ``x`` by bisection.  The paper uses the asymptotic
    ``eps' / O(sqrt(k ln(1/delta')))``; solving exactly gives slightly
    better constants and makes the benchmarks self-consistent.
    """
    if total_eps <= 0:
        raise PrivacyError(f"total_eps must be positive, got {total_eps}")
    if k <= 0:
        raise PrivacyError(f"k must be positive, got {k}")
    if not 0.0 < delta_prime < 1.0:
        raise PrivacyError(
            f"delta_prime must be in (0, 1), got {delta_prime}"
        )

    def composed(x: float) -> float:
        try:
            growth = math.exp(x) - 1.0
        except OverflowError:
            # Past e^709.78 the loss is far above any finite target.
            return math.inf
        return math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * x + (
            k * x * growth
        )

    low, high = 0.0, total_eps  # composed(total_eps) >= total_eps always
    for _ in range(200):
        mid = (low + high) / 2.0
        if composed(mid) <= total_eps:
            low = mid
        else:
            high = mid
    if low <= 0.0:
        raise PrivacyError(
            "no positive per-query epsilon satisfies the composition "
            f"target (total_eps={total_eps}, k={k})"
        )
    return low
