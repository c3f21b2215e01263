"""Unit tests for :mod:`repro.core.distance_oracle`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    DisconnectedGraphError,
    Rng,
    VertexNotFoundError,
    WeightedGraph,
    private_distance,
)
from repro.dp import bounds
from repro.graphs import generators


class TestPrivateDistance:
    def test_unbiased(self, triangle):
        rng = Rng(0)
        releases = [
            private_distance(triangle, 0, 2, eps=1.0, rng=rng)
            for _ in range(20_000)
        ]
        assert float(np.mean(releases)) == pytest.approx(3.0, abs=0.05)

    def test_error_concentration(self, triangle):
        """Error magnitude obeys the (1/eps) log(1/gamma) quantile."""
        rng = Rng(1)
        eps, gamma = 2.0, 0.05
        bound = bounds.single_pair_distance_error(eps, gamma)
        errors = [
            abs(private_distance(triangle, 0, 2, eps=eps, rng=rng) - 3.0)
            for _ in range(5000
            )
        ]
        violations = sum(1 for e in errors if e > bound)
        assert violations / len(errors) <= gamma * 1.5

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            private_distance(g, 0, 3, eps=1.0, rng=Rng(0))


class TestAllPairsBasic:
    def test_released_distances_present_for_all_pairs(self, grid5):
        release = AllPairsBasicRelease(grid5, eps=1.0, rng=Rng(0))
        assert len(release.all_released()) == 25 * 24 // 2
        assert release.distance((0, 0), (4, 4)) == release.distance(
            (4, 4), (0, 0)
        )

    def test_self_distance_zero(self, grid5):
        release = AllPairsBasicRelease(grid5, eps=1.0, rng=Rng(0))
        assert release.distance((1, 1), (1, 1)) == 0.0

    def test_noise_scale_is_pairs_over_eps(self, grid5):
        release = AllPairsBasicRelease(grid5, eps=2.0, rng=Rng(0))
        assert release.noise_scale == (300) / 2.0

    def test_params(self, grid5):
        release = AllPairsBasicRelease(grid5, eps=0.5, rng=Rng(0))
        assert release.params.eps == 0.5
        assert release.params.is_pure

    def test_missing_vertex(self, grid5):
        release = AllPairsBasicRelease(grid5, eps=1.0, rng=Rng(0))
        with pytest.raises(VertexNotFoundError):
            release.distance((0, 0), (9, 9))

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            AllPairsBasicRelease(g, eps=1.0, rng=Rng(0))

    def test_exact_distance_accessor(self, triangle):
        release = AllPairsBasicRelease(triangle, eps=1.0, rng=Rng(0))
        assert release.exact_distance(0, 2) == 3.0


class TestAllPairsAdvanced:
    def test_noise_scale_beats_basic(self, grid5):
        """The point of the (eps, delta) baseline: ~V noise instead of
        ~V^2."""
        basic = AllPairsBasicRelease(grid5, eps=1.0, rng=Rng(0))
        advanced = AllPairsAdvancedRelease(
            grid5, eps=1.0, delta=1e-6, rng=Rng(0)
        )
        assert advanced.noise_scale < basic.noise_scale

    def test_noise_scale_near_paper_form(self, grid5):
        """Scale is within a small factor of V sqrt(2 ln 1/delta)/eps."""
        eps, delta = 1.0, 1e-6
        release = AllPairsAdvancedRelease(
            grid5, eps=eps, delta=delta, rng=Rng(0)
        )
        paper = bounds.all_pairs_advanced_noise_scale(25, eps, delta)
        assert release.noise_scale == pytest.approx(paper, rel=0.5)

    def test_params_include_delta(self, grid5):
        release = AllPairsAdvancedRelease(
            grid5, eps=1.0, delta=1e-6, rng=Rng(0)
        )
        assert release.params.delta == 1e-6

    def test_errors_centered(self, triangle):
        rng = Rng(3)
        errors = []
        for _ in range(300):
            release = AllPairsAdvancedRelease(
                triangle, eps=1.0, delta=1e-4, rng=rng
            )
            errors.append(release.distance(0, 2) - 3.0)
        assert float(np.mean(errors)) == pytest.approx(0.0, abs=1.5)


class TestAccuracyOrdering:
    def test_advanced_more_accurate_on_average(self, rng):
        """Measured error of the advanced release is lower than basic on
        a moderate graph, as the noise-scale comparison predicts."""
        g = generators.erdos_renyi_graph(20, 0.2, rng)
        g = generators.assign_random_weights(g, rng, 1.0, 5.0)
        basic = AllPairsBasicRelease(g, eps=1.0, rng=rng)
        advanced = AllPairsAdvancedRelease(g, eps=1.0, delta=1e-6, rng=rng)
        pairs = [(0, i) for i in range(1, 20)]
        basic_err = np.mean(
            [abs(basic.distance(s, t) - basic.exact_distance(s, t)) for s, t in pairs]
        )
        advanced_err = np.mean(
            [
                abs(advanced.distance(s, t) - advanced.exact_distance(s, t))
                for s, t in pairs
            ]
        )
        assert advanced_err < basic_err
