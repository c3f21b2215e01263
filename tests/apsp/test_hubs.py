"""Unit tests for :mod:`repro.apsp.hubs` — the improved hub-set
all-pairs release."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    DisconnectedGraphError,
    GraphError,
    Rng,
    VertexNotFoundError,
)
from repro.algorithms.shortest_paths import all_pairs_dijkstra
from repro.apsp import (
    HubSetRelease,
    default_ball_size,
    default_hub_count,
    hub_pair_count_bound,
    predicted_hub_scale,
)
from repro.dp.composition import composed_noise_scale
from repro.graphs import generators


class TestDefaults:
    def test_sqrt_sizing(self):
        assert default_hub_count(1024) == 32
        assert default_ball_size(1024) == 32
        assert default_hub_count(1) == 1
        assert default_ball_size(1) == 0

    def test_ball_never_exceeds_other_sites(self):
        assert default_ball_size(2) == 1
        assert default_hub_count(2) <= 2

    def test_invalid_site_count_rejected(self):
        with pytest.raises(GraphError):
            default_hub_count(0)
        with pytest.raises(GraphError):
            default_ball_size(0)

    def test_pair_count_bound_is_subquadratic(self):
        n = 4096
        assert hub_pair_count_bound(n) < n * (n - 1) // 2
        # ~2 V^{3/2} for the sqrt defaults.
        assert hub_pair_count_bound(n) < 3 * n * math.sqrt(n)


class TestAccounting:
    def test_pure_scale_is_pairs_over_eps(self):
        assert composed_noise_scale(100, eps=0.5) == 200.0

    def test_advanced_scale_beats_pure_on_large_counts(self):
        q = 50_000
        assert composed_noise_scale(q, 1.0, delta=1e-6) < (
            composed_noise_scale(q, 1.0)
        )

    def test_release_pair_count_within_bound(self, rng):
        graph = generators.grid_graph(8, 8)
        release = HubSetRelease(graph, 1.0, rng)
        assert 0 < release.released_pair_count <= hub_pair_count_bound(64)
        assert release.noise_scale == release.released_pair_count / 1.0

    def test_predicted_scale_matches_released_regime(self):
        # The selection-time prediction is an upper bound on what a
        # release actually pays (ball pairs deduplicate).
        graph = generators.grid_graph(8, 8)
        release = HubSetRelease(graph, 1.0, Rng(0))
        assert release.noise_scale <= predicted_hub_scale(64, 1.0)


class TestRelease:
    def test_symmetric_and_zero_on_diagonal(self, rng):
        graph = generators.grid_graph(6, 6)
        release = HubSetRelease(graph, 1.0, rng)
        assert release.distance((0, 0), (5, 5)) == release.distance(
            (5, 5), (0, 0)
        )
        assert release.distance((2, 3), (2, 3)) == 0.0

    def test_estimates_clamped_at_zero(self, rng):
        # Tiny eps drives the noise far negative; post-processing
        # clamps the released estimate at 0.
        graph = generators.grid_graph(5, 5)
        release = HubSetRelease(graph, 1e-3, rng)
        for target in [(4, 4), (0, 3), (2, 2)]:
            assert release.distance((0, 0), target) >= 0.0

    def test_deterministic_under_seed(self):
        graph = generators.grid_graph(6, 6)
        a = HubSetRelease(graph, 1.0, Rng(9))
        b = HubSetRelease(graph, 1.0, Rng(9))
        for pair in [((0, 0), (5, 5)), ((1, 2), (4, 0))]:
            assert a.distance(*pair) == b.distance(*pair)
        assert a.hubs == b.hubs

    def test_unknown_vertex_raises(self, rng):
        graph = generators.grid_graph(4, 4)
        release = HubSetRelease(graph, 1.0, rng)
        with pytest.raises(VertexNotFoundError):
            release.distance((9, 9), (0, 0))

    def test_disconnected_rejected(self, rng):
        graph = generators.grid_graph(3, 3)
        graph.add_vertex("island")
        with pytest.raises(DisconnectedGraphError):
            HubSetRelease(graph, 1.0, rng)

    def test_exact_distance_matches_dijkstra(self, rng):
        graph = generators.assign_random_weights(
            generators.grid_graph(5, 5), rng, low=0.5, high=2.0
        )
        release = HubSetRelease(graph, 1.0, rng)
        sweep = all_pairs_dijkstra(graph)
        for s, t in [((0, 0), (4, 4)), ((1, 3), (3, 0))]:
            assert release.exact_distance(s, t) == sweep[s][t]

    def test_hub_and_ball_overrides(self, rng):
        graph = generators.grid_graph(5, 5)
        release = HubSetRelease(graph, 1.0, rng, hub_count=5, ball_size=3)
        assert release.hub_count == 5
        with pytest.raises(GraphError):
            HubSetRelease(graph, 1.0, rng, hub_count=0)
        with pytest.raises(GraphError):
            HubSetRelease(graph, 1.0, rng, ball_size=25)

    def test_hub_self_distance_released_as_zero(self, rng):
        graph = generators.grid_graph(5, 5)
        release = HubSetRelease(graph, 1.0, rng)
        structure = release.structure
        for row, pos in enumerate(structure.hub_positions):
            assert structure.matrix[row, int(pos)] == 0.0

    def test_hub_hub_entries_symmetrized(self, rng):
        # One released value per hub pair: mirror cells are copies.
        graph = generators.grid_graph(6, 6)
        release = HubSetRelease(graph, 1.0, rng)
        structure = release.structure
        hubs = structure.hub_positions
        for i in range(len(hubs)):
            for j in range(i + 1, len(hubs)):
                assert (
                    structure.matrix[i, int(hubs[j])]
                    == structure.matrix[j, int(hubs[i])]
                )


class TestLowNoiseFidelity:
    """With eps enormous the noise vanishes, exposing the covering
    structure: relays never undercut the truth, and pairs inside a
    local ball (or with a hub on the path) are answered exactly."""

    EPS = 1e9
    TOL = 1e-3

    def test_estimates_never_far_below_truth(self):
        graph = generators.grid_graph(6, 6)
        release = HubSetRelease(graph, self.EPS, Rng(1))
        sweep = all_pairs_dijkstra(graph)
        for s in graph.vertices():
            for t in graph.vertices():
                if s == t:
                    continue
                # Every relay sum and ball entry is >= the true
                # distance up to the (negligible) noise.
                assert release.distance(s, t) >= sweep[s][t] - self.TOL

    def test_path_graph_answers_exactly(self):
        # On a path, every hub between the endpoints lies on the
        # shortest path, and adjacent pairs fall in each other's ball,
        # so the hub estimate recovers the truth for covered pairs.
        graph = generators.path_graph(30)
        release = HubSetRelease(graph, self.EPS, Rng(2))
        for i in range(29):
            assert release.distance(i, i + 1) == pytest.approx(
                1.0, abs=self.TOL
            )
        lo, hi = min(release.hubs), max(release.hubs)
        # Endpoints bracketing all hubs relay through one exactly.
        assert release.distance(lo, hi) == pytest.approx(
            float(hi - lo), abs=self.TOL
        )

    def test_ball_refinement_beats_relay_for_near_pairs(self):
        # A 2x20 ladder: the sampled hubs are far from most rungs, so
        # nearby pairs would pay a large relay detour; the local ball
        # answers them (near-)exactly instead.
        graph = generators.grid_graph(2, 20)
        release = HubSetRelease(
            graph, self.EPS, Rng(3), hub_count=2, ball_size=6
        )
        errors = [
            abs(release.distance((0, c), (1, c)) - 1.0)
            for c in range(20)
        ]
        assert np.median(errors) < self.TOL
