"""Unit tests for :mod:`repro.dp.params` (Definitions 2.1 and 2.2)."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro import PrivacyError, PrivacyParams
from repro.dp import l1_distance, weights_are_neighboring


class TestPrivacyParams:
    def test_pure(self):
        p = PrivacyParams(0.5)
        assert p.is_pure
        assert p.delta == 0.0
        assert str(p) == "0.5-DP"

    def test_approx(self):
        p = PrivacyParams(1.0, 1e-6)
        assert not p.is_pure
        assert "1e-06" in str(p)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_eps(self, eps):
        with pytest.raises(PrivacyError):
            PrivacyParams(eps)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_invalid_delta(self, delta):
        with pytest.raises(PrivacyError):
            PrivacyParams(1.0, delta)

    @pytest.mark.parametrize(
        "eps,delta", [(True, 0.0), (1.0, False), (np.True_, 0.0)]
    )
    def test_boolean_refused(self, eps, delta):
        """A boolean is not a budget, although ``True == 1``."""
        with pytest.raises(PrivacyError, match="not booleans"):
            PrivacyParams(eps, delta)

    @pytest.mark.parametrize(
        "eps,delta,want",
        [
            (3, 0, (3, 0)),
            (np.int64(3), np.int32(0), (3, 0)),
            (np.uint8(2), 0.0, (2, 0.0)),
            (Fraction(1, 2), Fraction(1, 10**6), (0.5, 1e-6)),
            (np.float32(0.5), np.float64(1e-6), (0.5, 1e-6)),
        ],
    )
    def test_real_numbers_kept_as_int_or_float(self, eps, delta, want):
        """An integer budget stays an int (3, not 3.0) and any other
        real becomes a float, so no numpy scalar or Fraction reaches
        what records the budget."""
        p = PrivacyParams(eps, delta)
        assert (p.eps, p.delta) == want
        assert (type(p.eps), type(p.delta)) == tuple(map(type, want))

    @pytest.mark.parametrize("eps", ["1", None, 1 + 0j, Decimal("1")])
    def test_non_real_refused(self, eps):
        with pytest.raises(PrivacyError, match="real number"):
            PrivacyParams(eps)

    def test_frozen(self):
        p = PrivacyParams(1.0)
        with pytest.raises(Exception):
            p.eps = 2.0  # type: ignore[misc]

    def test_split(self):
        p = PrivacyParams(1.0, 0.01)
        half = p.split(2)
        assert half.eps == 0.5
        assert half.delta == 0.005

    def test_split_invalid(self):
        with pytest.raises(PrivacyError):
            PrivacyParams(1.0).split(0)


class TestNeighboring:
    def test_l1_distance(self):
        w = {("a", "b"): 1.0, ("b", "c"): 2.0}
        w2 = {("a", "b"): 1.5, ("b", "c"): 1.8}
        assert l1_distance(w, w2) == pytest.approx(0.7)

    def test_l1_distance_missing_keys_as_zero(self):
        assert l1_distance({"e": 2.0}, {}) == 2.0
        assert l1_distance({}, {"e": 3.0}) == 3.0

    def test_neighboring_at_exact_boundary(self):
        w = {"e1": 0.0, "e2": 0.0}
        w2 = {"e1": 0.5, "e2": 0.5}
        assert weights_are_neighboring(w, w2)

    def test_not_neighboring(self):
        w = {"e1": 0.0}
        w2 = {"e1": 1.5}
        assert not weights_are_neighboring(w, w2)

    def test_custom_unit(self):
        """The Scaling remark of Section 1.2: unit 1/V instead of 1."""
        w = {"e1": 0.0}
        w2 = {"e1": 0.1}
        assert not weights_are_neighboring(w, w2, unit=0.05)
        assert weights_are_neighboring(w, w2, unit=0.2)

    def test_invalid_unit(self):
        with pytest.raises(PrivacyError):
            weights_are_neighboring({}, {}, unit=0.0)

    def test_identical_weights_are_neighbors(self):
        w = {"e": 1.0}
        assert weights_are_neighboring(w, dict(w))
