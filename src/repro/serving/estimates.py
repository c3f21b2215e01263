"""Rich query results: value + uncertainty, not a bare float.

A differentially private answer without its noise scale forces the
client to *trust* the accuracy story; the paper's theorems are exactly
statements about that scale, so the serving engine should hand it
over.  :class:`Estimate` is the richer return type of the
``estimate()`` / ``estimate_batch()`` serving path: the released
value, the effective Laplace scale behind it, the mechanism and epoch
that produced it, and a Laplace-CDF confidence interval.

``query()`` remains the thin path — it returns ``estimate().value``
bit for bit — so existing consumers and seeded reproductions are
untouched.

A scale comes from the object that composed the answer: the synopsis
(:meth:`~repro.serving.synopsis.DistanceSynopsis.noise_scale_for`), or
a sharded service's shard router, which knows which branch served.

Calibration caveat (documented, tested): the interval is *exact* when
the answer is a single Laplace draw (the single-pair and all-pairs
families — empirical coverage matches the nominal level).  Mechanisms
that compose several released entries per answer (tree path sums, hub
relay minima, sharded relay chains) report a composed or per-entry
scale, making the interval a structured error bar rather than an
exact quantile.  A covering mechanism's scale leaves out the covering
detour (up to ``2kM``), a deterministic error term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..exceptions import PrivacyError
from ..rng import laplace_quantile

__all__ = ["Estimate"]


@dataclass(frozen=True)
class Estimate:
    """One served distance estimate with its uncertainty.

    Attributes
    ----------
    value:
        The released distance — identical to what ``query()`` returns
        for the same pair under the same seed.
    noise_scale:
        The effective Laplace scale behind the answer (the synopsis's
        :meth:`~repro.serving.synopsis.DistanceSynopsis.noise_scale_for`
        for the pair, or a sharded service's routed scale); 0 for
        deterministic answers such as ``distance(v, v)``.
    mechanism:
        The catalog name of the mechanism that released the synopsis.
    epoch:
        The ledger epoch the backing synopsis was built in.
    """

    value: float
    noise_scale: float
    mechanism: str
    epoch: int

    def confidence_interval(
        self, level: float = 0.95
    ) -> Tuple[float, float]:
        """The two-sided ``level`` confidence interval via the Laplace
        CDF: ``P(|Lap(b)| <= t) = 1 - exp(-t/b)``, so the half-width
        is ``b ln(1/(1 - level))``.  Exact coverage for single-draw
        answers; see the module docstring for composed mechanisms.
        """
        if not 0.0 < level < 1.0:
            raise PrivacyError(
                f"confidence level must be in (0, 1), got {level}"
            )
        if self.noise_scale <= 0.0:
            return (self.value, self.value)
        half = laplace_quantile(self.noise_scale, 1.0 - level)
        return (self.value - half, self.value + half)

    def margin(self, level: float = 0.95) -> float:
        """The confidence interval's half-width at ``level``."""
        lo, hi = self.confidence_interval(level)
        return (hi - lo) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.value:.6f} ± Lap({self.noise_scale:g}) "
            f"[{self.mechanism}, epoch {self.epoch}]"
        )
