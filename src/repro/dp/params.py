"""Privacy parameters and the neighboring relation (Section 2).

Definition 2.1: two weight functions ``w, w'`` on the same edge set are
*neighboring* when ``||w - w'||_1 <= 1``.  Definition 2.2 is standard
``(eps, delta)``-differential privacy over that relation.  The paper's
"Scaling" remark (Section 1.2) generalizes the unit to any constant;
:func:`weights_are_neighboring` takes the unit as a parameter for that
reason.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..exceptions import PrivacyError

__all__ = ["PrivacyParams", "l1_distance", "weights_are_neighboring"]

#: Python's and numpy's booleans, which compare equal to 0 and 1 but
#: are not a budget.
_BOOLEANS = (bool, np.bool_)


@dataclass(frozen=True)
class PrivacyParams:
    """An ``(eps, delta)`` differential-privacy guarantee.

    ``delta = 0`` (the default) is pure differential privacy.  The class
    is immutable so a guarantee attached to a release cannot be mutated
    after the fact.  ``eps`` and ``delta`` take any real number but a
    boolean, and keep an integer as a Python ``int`` and any other real
    as a ``float`` (numpy's scalars and ``Fraction`` included); anything
    else raises :class:`~repro.exceptions.PrivacyError`.
    """

    eps: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        # Every real number is kept as a Python int or float, so what
        # records a budget (the ledger, the audit log) sees no numpy
        # scalar or Fraction: an integer budget stays an int, 3 not 3.0.
        for name in ("eps", "delta"):
            value = getattr(self, name)
            if isinstance(value, _BOOLEANS):
                raise PrivacyError(
                    f"eps and delta must be numbers, not booleans: {self!r}"
                )
            if isinstance(value, numbers.Integral):
                value = int(value)
            elif isinstance(value, numbers.Real):
                value = float(value)
            else:
                raise PrivacyError(
                    f"{name} must be a real number, got {value!r}"
                )
            object.__setattr__(self, name, value)
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise PrivacyError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 <= self.delta < 1.0:
            raise PrivacyError(f"delta must be in [0, 1), got {self.delta}")

    @property
    def is_pure(self) -> bool:
        """Whether this is pure (``delta = 0``) differential privacy."""
        return self.delta == 0.0

    def split(self, parts: int) -> "PrivacyParams":
        """An even split of the budget across ``parts`` releases under
        basic composition (Lemma 3.3): each part gets
        ``(eps/parts, delta/parts)``."""
        if parts <= 0:
            raise PrivacyError(f"parts must be positive, got {parts}")
        return PrivacyParams(self.eps / parts, self.delta / parts)

    def __str__(self) -> str:
        if self.is_pure:
            return f"{self.eps:g}-DP"
        return f"({self.eps:g}, {self.delta:g})-DP"


def l1_distance(
    w: Mapping[object, float], w_prime: Mapping[object, float]
) -> float:
    """``||w - w'||_1`` over the union of keys.

    The two weight functions must be over the same edge set in the
    model; a key missing on one side is treated as weight 0 so the
    function is total, which is convenient for tests that build
    neighbors by perturbing a few edges.
    """
    keys = set(w) | set(w_prime)
    # math.fsum is exactly rounded, so the result is independent of the
    # (set-dependent) iteration order — l1_distance(w, w') is then
    # bit-for-bit symmetric.
    return math.fsum(
        abs(w.get(key, 0.0) - w_prime.get(key, 0.0)) for key in keys
    )


def weights_are_neighboring(
    w: Mapping[object, float],
    w_prime: Mapping[object, float],
    unit: float = 1.0,
) -> bool:
    """Definition 2.1's neighboring relation: ``||w - w'||_1 <= unit``.

    ``unit`` defaults to the paper's constant 1; the Scaling remark of
    Section 1.2 corresponds to passing a different unit.
    """
    if unit <= 0:
        raise PrivacyError(f"neighboring unit must be positive, got {unit}")
    return l1_distance(w, w_prime) <= unit + 1e-12
