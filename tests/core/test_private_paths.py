"""Unit tests for :mod:`repro.core.private_paths` (Algorithm 3,
Theorem 5.5, Corollary 5.6)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PrivacyError, Rng, WeightedGraph, release_private_paths
from repro.exceptions import WeightError
from repro.analysis import path_error
from repro.dp import bounds
from repro.graphs import generators


class TestReleaseMechanics:
    def test_offset_formula(self, grid5):
        eps, gamma = 2.0, 0.1
        release = release_private_paths(grid5, eps, gamma, Rng(0))
        assert release.offset == pytest.approx(
            (1 / eps) * math.log(grid5.num_edges / gamma)
        )

    def test_no_bias_option(self, grid5):
        release = release_private_paths(
            grid5, 1.0, 0.1, Rng(0), hop_bias=False
        )
        assert release.offset == 0.0

    def test_released_weights_biased_upward(self, grid5):
        release = release_private_paths(grid5, 1.0, 0.05, Rng(0))
        true = grid5.weight_vector()
        noisy = release.graph.weight_vector()
        # The offset dominates the noise on average.
        assert noisy.mean() > true.mean()

    def test_invalid_gamma(self, grid5):
        with pytest.raises(PrivacyError):
            release_private_paths(grid5, 1.0, 0.0, Rng(0))
        with pytest.raises(PrivacyError):
            release_private_paths(grid5, 1.0, 1.0, Rng(0))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_weights_outside_r_plus_refused(self, grid5, bad):
        """Algorithm 3 releases only on a weight function into R+:
        a NaN or infinite weight is refused like a negative one."""
        weights = grid5.weight_vector()
        weights[0] = bad
        with pytest.raises(WeightError):
            release_private_paths(
                grid5.with_weights(weights), 1.0, 0.1, Rng(0)
            )

    def test_params(self, grid5):
        release = release_private_paths(grid5, 0.3, 0.1, Rng(0))
        assert release.params.eps == 0.3
        assert release.params.is_pure

    def test_nonnegative_weights_always(self, grid5):
        release = release_private_paths(grid5, 0.1, 0.5, Rng(0))
        assert (release.graph.weight_vector() >= 0).all()


class TestPathQueries:
    def test_path_valid_and_connects(self, grid5):
        release = release_private_paths(grid5, 1.0, 0.05, Rng(0))
        path = release.path((0, 0), (4, 4))
        assert grid5.is_path(path)
        assert path[0] == (0, 0) and path[-1] == (4, 4)

    def test_paths_from_source_cover_all(self, grid5):
        release = release_private_paths(grid5, 1.0, 0.05, Rng(0))
        paths = release.paths_from((0, 0))
        assert set(paths) == set(grid5.vertices())
        for target, path in paths.items():
            assert path[-1] == target

    def test_all_pairs_paths(self, triangle):
        release = release_private_paths(triangle, 1.0, 0.05, Rng(0))
        all_paths = release.all_pairs_paths()
        assert set(all_paths) == {0, 1, 2}
        assert all_paths[0][2][0] == 0

    def test_path_with_released_weight(self, grid5):
        release = release_private_paths(grid5, 1.0, 0.05, Rng(0))
        path, released_weight = release.path_with_released_weight(
            (0, 0), (0, 4)
        )
        assert released_weight == pytest.approx(
            release.graph.path_weight(path)
        )


class TestTheorem55:
    def test_error_bound_holds_whp(self, rng):
        """For all pairs simultaneously, error <= (2 l(P') / eps)
        log(E/gamma) against every alternative path P'."""
        eps, gamma = 1.0, 0.05
        g = generators.erdos_renyi_graph(30, 0.12, rng)
        g = generators.assign_random_weights(g, rng, 0.0, 4.0)
        from repro.algorithms import dijkstra_path, path_hops

        bound_violations = 0
        trials = 20
        vertices = g.vertex_list()
        for _ in range(trials):
            release = release_private_paths(g, eps, gamma, rng.spawn())
            ok = True
            for t in vertices[1:]:
                released = release.path(0, t)
                true_path, true_dist = dijkstra_path(g, 0, t)
                k = path_hops(true_path)
                limit = bounds.shortest_path_error(k, g.num_edges, eps, gamma)
                if g.path_weight(released) > true_dist + limit + 1e-9:
                    ok = False
                    break
            if not ok:
                bound_violations += 1
        assert bound_violations / trials <= gamma * 2

    def test_corollary56_worst_case(self, rng):
        """All errors below the (2V/eps) log(E/gamma) corollary bound."""
        eps, gamma = 0.5, 0.05
        g = generators.grid_graph(6, 6)
        release = release_private_paths(g, eps, gamma, Rng(7))
        limit = bounds.shortest_path_error_worst_case(
            g.num_vertices, g.num_edges, eps, gamma
        )
        for t in [(5, 5), (0, 5), (3, 3)]:
            err = path_error(g, release.path((0, 0), t))
            assert err <= limit

    def test_hop_bias_prefers_short_paths(self):
        """A 2-hop heavy path vs a 20-hop path of slightly smaller
        weight: the bias makes the release prefer the 2-hop one."""
        g = WeightedGraph()
        # Long path: 20 hops of weight 1 (total 20).
        for i in range(20):
            g.add_edge(i, i + 1, 1.0)
        # Short path: 2 hops of total weight 20.5 (slightly worse).
        g.add_edge(0, "mid", 10.25)
        g.add_edge("mid", 20, 10.25)
        prefer_short = 0
        trials = 40
        rng = Rng(11)
        for _ in range(trials):
            release = release_private_paths(g, 1.0, 0.05, rng.spawn())
            if len(release.path(0, 20)) == 3:
                prefer_short += 1
        assert prefer_short / trials > 0.9

    def test_error_scales_with_hops_not_v(self, rng):
        """On a large sparse graph, near pairs get far smaller error
        than the Corollary 5.6 worst case — the paper's headline
        practical claim."""
        g = generators.grid_graph(12, 12)
        eps, gamma = 1.0, 0.05
        release = release_private_paths(g, eps, gamma, Rng(5))
        near_error = path_error(g, release.path((0, 0), (0, 2)))
        worst_case = bounds.shortest_path_error_worst_case(
            g.num_vertices, g.num_edges, eps, gamma
        )
        assert near_error < worst_case / 5

    def test_scaling_unit(self, grid5):
        """Section 1.2: with unit u the offset scales by u."""
        release = release_private_paths(
            grid5, 1.0, 0.1, Rng(0), sensitivity_unit=0.01
        )
        expected = 0.01 * math.log(grid5.num_edges / 0.1)
        assert release.offset == pytest.approx(expected)


class TestAblation:
    def test_bias_improves_low_hop_accuracy(self, rng):
        """Ablation: with the hop bias, released paths for near pairs
        have smaller true error than without it (on a graph with heavy
        long detours)."""
        g = generators.grid_graph(10, 10)
        gw = generators.assign_random_weights(g, rng, 5.0, 10.0)
        pairs = [((0, 0), (0, 3)), ((2, 2), (4, 2)), ((5, 5), (7, 7))]
        biased_errors, unbiased_errors = [], []
        for _ in range(15):
            biased = release_private_paths(gw, 0.5, 0.05, rng.spawn())
            unbiased = release_private_paths(
                gw, 0.5, 0.05, rng.spawn(), hop_bias=False
            )
            for s, t in pairs:
                biased_errors.append(path_error(gw, biased.path(s, t)))
                unbiased_errors.append(path_error(gw, unbiased.path(s, t)))
        assert np.mean(biased_errors) <= np.mean(unbiased_errors) * 1.1
