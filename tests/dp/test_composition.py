"""Unit tests for :mod:`repro.dp.composition` (Lemmas 3.3 and 3.4)."""

from __future__ import annotations

import math

import pytest

from repro import PrivacyError, PrivacyParams
from repro.dp import (
    advanced_composition,
    basic_composition,
)
from repro.dp.composition import advanced_composition_epsilon_per_query


class TestBasicComposition:
    def test_linear_scaling(self):
        total = basic_composition(PrivacyParams(0.1, 1e-8), 10)
        assert total.eps == pytest.approx(1.0)
        assert total.delta == pytest.approx(1e-7)

    def test_single_run_identity(self):
        p = PrivacyParams(0.3, 1e-6)
        assert basic_composition(p, 1) == p

    def test_invalid_k(self):
        with pytest.raises(PrivacyError):
            basic_composition(PrivacyParams(1.0), 0)


class TestAdvancedComposition:
    def test_formula(self):
        eps, k, delta_prime = 0.01, 100, 1e-6
        total = advanced_composition(PrivacyParams(eps), k, delta_prime)
        expected = math.sqrt(2 * k * math.log(1 / delta_prime)) * eps + (
            k * eps * (math.exp(eps) - 1)
        )
        assert total.eps == pytest.approx(expected)
        assert total.delta == pytest.approx(delta_prime)

    def test_beats_basic_for_many_queries(self):
        """The point of Lemma 3.4: sqrt(k) growth instead of k."""
        p = PrivacyParams(0.01)
        k = 10_000
        advanced = advanced_composition(p, k, 1e-9)
        basic = basic_composition(p, k)
        assert advanced.eps < basic.eps

    def test_delta_accumulates(self):
        total = advanced_composition(PrivacyParams(0.01, 1e-9), 10, 1e-6)
        assert total.delta == pytest.approx(1e-6 + 10 * 1e-9)

    def test_invalid_delta_prime(self):
        with pytest.raises(PrivacyError):
            advanced_composition(PrivacyParams(0.1), 5, 0.0)
        with pytest.raises(PrivacyError):
            advanced_composition(PrivacyParams(0.1), 5, 1.0)


class TestInverseComposition:
    def test_inverse_is_consistent(self):
        """Composing the solved per-query eps lands within the target."""
        total_eps, k, delta = 1.0, 500, 1e-6
        eps_q = advanced_composition_epsilon_per_query(total_eps, k, delta)
        recomposed = advanced_composition(PrivacyParams(eps_q), k, delta)
        assert recomposed.eps <= total_eps + 1e-9
        # and it is not wastefully small: doubling it must overshoot
        overshoot = advanced_composition(PrivacyParams(2 * eps_q), k, delta)
        assert overshoot.eps > total_eps

    def test_matches_paper_asymptotics(self):
        """eps_q ~ eps / sqrt(2 k ln(1/delta)) for small eps."""
        total_eps, k, delta = 0.5, 10_000, 1e-8
        eps_q = advanced_composition_epsilon_per_query(total_eps, k, delta)
        approx = total_eps / math.sqrt(2 * k * math.log(1 / delta))
        assert eps_q == pytest.approx(approx, rel=0.1)

    def test_single_query_recovers_full_budget(self):
        eps_q = advanced_composition_epsilon_per_query(1.0, 1, 1e-6)
        # With k = 1 the composed eps still includes the sqrt term, so
        # eps_q < 1, but it must satisfy consistency.
        recomposed = advanced_composition(PrivacyParams(eps_q), 1, 1e-6)
        assert recomposed.eps <= 1.0 + 1e-9

    def test_invalid_args(self):
        with pytest.raises(PrivacyError):
            advanced_composition_epsilon_per_query(0.0, 5, 1e-6)
        with pytest.raises(PrivacyError):
            advanced_composition_epsilon_per_query(1.0, 0, 1e-6)
        with pytest.raises(PrivacyError):
            advanced_composition_epsilon_per_query(1.0, 5, 2.0)

    def test_monotone_in_k(self):
        """More queries -> smaller per-query budget."""
        eps_small_k = advanced_composition_epsilon_per_query(1.0, 10, 1e-6)
        eps_large_k = advanced_composition_epsilon_per_query(1.0, 1000, 1e-6)
        assert eps_large_k < eps_small_k

    @pytest.mark.parametrize("total_eps", [2000.0, 1e6])
    @pytest.mark.parametrize("k", [1, 10, 1000])
    def test_budgets_past_the_exp_overflow(self, total_eps, k):
        # The bisection's first midpoints lie past e^709.78.
        eps_q = advanced_composition_epsilon_per_query(total_eps, k, 1e-6)
        assert math.isfinite(eps_q) and eps_q > 0
        recomposed = advanced_composition(PrivacyParams(eps_q), k, 1e-6)
        assert recomposed.eps <= total_eps
