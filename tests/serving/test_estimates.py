"""Unit tests for the rich estimate path: :class:`repro.Estimate`,
per-synopsis noise scales, confidence-interval calibration, and the
``SynopsisError`` regression."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from repro import (
    DistanceService,
    Estimate,
    PrivacyParams,
    ReproError,
    Rng,
    ServingConfig,
    SynopsisError,
    serve,
    synopsis_from_json,
)
from repro.algorithms.shortest_paths import all_pairs_dijkstra
from repro.exceptions import GraphError, PrivacyError
from repro.graphs import generators
from repro.graphs.io import _decode_vertex
from repro.serving import build_single_pair_synopsis
from repro.workloads import grid_road_network


class TestEstimateType:
    def test_query_equals_estimate_value(self, rng):
        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, rng)
        estimate = service.estimate((0, 0), (3, 3))
        assert service.query((0, 0), (3, 3)) == estimate.value
        assert estimate.mechanism == service.mechanism
        assert estimate.epoch == 0
        assert estimate.noise_scale > 0

    def test_confidence_interval_laplace_quantile(self):
        estimate = Estimate(
            value=10.0, noise_scale=2.0, mechanism="test", epoch=0
        )
        lo, hi = estimate.confidence_interval(0.9)
        half = 2.0 * math.log(10.0)  # b ln(1/(1-level))
        assert lo == pytest.approx(10.0 - half)
        assert hi == pytest.approx(10.0 + half)
        assert estimate.margin(0.9) == pytest.approx(half)

    def test_interval_widens_with_level(self):
        estimate = Estimate(
            value=0.0, noise_scale=1.0, mechanism="test", epoch=0
        )
        assert estimate.margin(0.99) > estimate.margin(0.9)

    def test_zero_scale_degenerate_interval(self):
        estimate = Estimate(
            value=3.0, noise_scale=0.0, mechanism="test", epoch=0
        )
        assert estimate.confidence_interval(0.95) == (3.0, 3.0)

    def test_invalid_level_rejected(self):
        estimate = Estimate(
            value=0.0, noise_scale=1.0, mechanism="test", epoch=0
        )
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PrivacyError):
                estimate.confidence_interval(level)

    def test_estimate_batch_aligns_with_input(self, rng):
        grid = generators.grid_graph(4, 4)
        service = DistanceService(grid, 1.0, rng)
        pairs = [((0, 0), (3, 3)), ((1, 1), (2, 2)), ((0, 0), (3, 3))]
        estimates = service.estimate_batch(pairs)
        assert len(estimates) == 3
        assert estimates[0].value == estimates[2].value  # deduped pair
        report = service.query_batch(pairs)
        assert [e.value for e in estimates] == report.answers

    def test_epoch_tracks_refresh(self, rng):
        grid = generators.grid_graph(3, 3)
        service = DistanceService(grid, 1.0, rng)
        assert service.estimate((0, 0), (2, 2)).epoch == 0
        service.refresh()
        assert service.estimate((0, 0), (2, 2)).epoch == 1


class TestNoiseScalePerMechanism:
    """The acceptance bar: ``estimate().noise_scale`` is nonzero for
    every registered mechanism."""

    def test_every_standalone_mechanism_reports_nonzero_scale(self, rng):
        grid = generators.grid_graph(4, 4)
        big = generators.grid_graph(8, 8)
        tree = generators.random_tree(10, rng)
        # The covering mechanisms get a budget generous enough for a
        # multi-site covering: at eps=1 their optimal radius spans the
        # whole 8x8 grid, every answer is a deterministic same-site 0,
        # and a 0 noise scale is the honest report.
        cases = [
            ("tree", tree, 1.0, {}),
            ("bounded-weight", big, 10.0, {"weight_bound": 1.0}),
            ("hub-bounded", big, 10.0, {"weight_bound": 1.0}),
            ("all-pairs-basic", grid, 1.0, {}),
            ("hub-set", grid, 1.0, {}),
        ]
        for name, graph, eps, kwargs in cases:
            service = DistanceService(
                graph, eps, rng, mechanism=name, **kwargs
            )
            # Covering mechanisms answer same-site pairs with a
            # deterministic 0 (honestly scale 0), so probe for a pair
            # backed by a released value.
            estimate = next(
                e
                for s, t in itertools.combinations(
                    graph.vertices(), 2
                )
                for e in [service.estimate(s, t)]
                if e.noise_scale > 0.0
            )
            assert estimate.noise_scale > 0.0, name
            assert estimate.mechanism == name
        advanced = DistanceService(
            grid,
            PrivacyParams(1.0, 1e-6),
            rng,
            mechanism="all-pairs-advanced",
        )
        assert advanced.estimate((0, 0), (3, 3)).noise_scale > 0.0

    def test_single_pair_synopsis_scale(self, rng):
        grid = generators.grid_graph(4, 4)
        pairs = [((0, 0), (3, 3)), ((1, 1), (2, 2))]
        synopsis = build_single_pair_synopsis(grid, pairs, 0.5, rng)
        assert synopsis.noise_scale == pytest.approx(2 / 0.5)
        assert synopsis.noise_scale_for(*pairs[0]) == synopsis.noise_scale

    def test_boundary_relay_scale(self, rng):
        service = DistanceService(
            generators.grid_graph(4, 4), 1.0, rng, shards=2
        )
        assert service.relay.noise_scale > 0.0
        assert service.relay.scale_for(0, 1) > 0.0

    def test_identical_pair_reports_zero_scale(self, rng):
        """Regression: ``distance(v, v)`` is a deterministic 0 for
        every synopsis, so its estimate must carry scale 0 and a
        degenerate confidence interval — not the per-entry scale."""
        grid = generators.grid_graph(4, 4)
        for mechanism in ("all-pairs-basic", "hub-set"):
            service = DistanceService(
                grid, 1.0, Rng(11), mechanism=mechanism
            )
            estimate = service.estimate((1, 1), (1, 1))
            assert estimate.value == 0.0
            assert estimate.noise_scale == 0.0
            assert estimate.confidence_interval(0.95) == (0.0, 0.0)
        tree = generators.random_tree(12, Rng(12))
        estimate = DistanceService(tree, 1.0, Rng(13)).estimate(0, 0)
        assert estimate.noise_scale == 0.0
        sharded = serve(
            grid_road_network(6, 6, Rng(14)).graph,
            ServingConfig(eps=1.0, shards=2),
            Rng(15),
        )
        estimate = sharded.estimate((0, 0), (0, 0))
        assert estimate.value == 0.0
        assert estimate.noise_scale == 0.0

    def test_bounded_weight_same_site_reports_zero_scale(self, rng):
        """Pairs sharing a covering site answer a deterministic 0.

        eps=10 keeps the 8x8 covering multi-site, so both the
        same-site and released-pair branches exist.
        """
        grid = generators.grid_graph(8, 8)
        service = DistanceService(
            grid, 10.0, rng, weight_bound=1.0,
            mechanism="bounded-weight",
        )
        synopsis = service.synopsis
        # The covering assignment is public: the shipped document
        # carries it.
        assignment = {
            _decode_vertex(v): _decode_vertex(z)
            for v, z in json.loads(synopsis.to_json())["assignment"]
        }
        same_site = next(
            (u, v)
            for u, v in itertools.combinations(assignment, 2)
            if assignment[u] == assignment[v]
        )
        assert synopsis.distance(*same_site) == 0.0
        assert synopsis.noise_scale_for(*same_site) == 0.0
        diff_site = next(
            (u, v)
            for u, v in itertools.combinations(assignment, 2)
            if assignment[u] != assignment[v]
        )
        assert synopsis.noise_scale_for(*diff_site) == (
            synopsis.noise_scale
        )

    def test_hub_composed_vs_ball_scales(self, rng):
        """The ISSUE contract: hub synopses report the composed relay
        scale (2x per-entry) unless a local-ball entry actually won
        ``estimate()``'s min, in which case the direct scale."""
        graph = generators.grid_graph(6, 6)
        service = DistanceService(graph, 1.0, rng, mechanism="hub-set")
        synopsis = service.synopsis
        structure = synopsis.structure
        m = structure.num_sites
        order = sorted(
            synopsis.vertices, key=lambda v: synopsis._site(v)
        )
        ball = dict(
            zip(structure.ball_keys.tolist(), structure.ball_values.tolist())
        )
        seen = set()
        for i, j in itertools.combinations(range(m), 2):
            direct = ball.get(i * m + j)
            relay_min = float(
                np.min(structure.matrix[:, i] + structure.matrix[:, j])
            )
            ball_won = direct is not None and direct < relay_min
            expected = (
                structure.noise_scale
                if ball_won
                else 2.0 * structure.noise_scale
            )
            assert synopsis.noise_scale_for(
                order[i], order[j]
            ) == pytest.approx(expected)
            seen.add(ball_won)
        assert seen == {True, False}  # both branches exercised
        assert synopsis.noise_scale_for(order[0], order[0]) == 0.0

    def test_ball_covered_pair_served_by_relay_reports_composed_scale(
        self,
    ):
        """Regression: a ball entry that *loses* ``estimate()``'s min
        must not halve the advertised scale."""
        from repro.apsp.hubs import HubStructure

        matrix = np.array([[0.0, 1.0, 1.0]])  # one hub, three sites
        structure = HubStructure(
            num_sites=3,
            hub_positions=np.array([0]),
            matrix=matrix,
            # Ball covers (0, 1) with a value below its relay min (1.0)
            # and (1, 2) with one above the relay min (2.0).
            ball_keys=np.array([0 * 3 + 1, 1 * 3 + 2]),
            ball_values=np.array([0.25, 5.0]),
            noise_scale=1.0,
            pair_count=3,
        )
        assert structure.estimate(1, 2) == 2.0  # relay won
        assert structure.scale_for(1, 2) == 2.0
        assert structure.estimate(0, 1) == 0.25  # ball won
        assert structure.scale_for(0, 1) == 1.0

    def test_scales_survive_json_round_trip(self, rng):
        grid = generators.grid_graph(4, 4)
        tree = generators.random_tree(10, rng)
        services = [
            DistanceService(tree, 1.0, rng),
            DistanceService(grid, 1.0, rng),
            DistanceService(grid, 1.0, rng, weight_bound=1.0),
            DistanceService(grid, 1.0, rng, mechanism="hub-set"),
        ]
        for service in services:
            restored = synopsis_from_json(service.synopsis.to_json())
            assert restored.noise_scale == pytest.approx(
                service.synopsis.noise_scale
            ), service.mechanism

    def test_sharded_estimates_compose_relay_scale(self):
        network = grid_road_network(8, 8, Rng(400))
        service = serve(
            network.graph,
            ServingConfig(eps=1.0, shards=2),
            Rng(401),
        )
        plan = service.plan
        vertices = list(network.graph.vertices())
        cross = intra = None
        for s in vertices:
            for t in vertices:
                if s == t:
                    continue
                if plan.shard_of(s) != plan.shard_of(t):
                    cross = cross or (s, t)
                else:
                    intra = intra or (s, t)
        cross_est = service.estimate(*cross)
        assert cross_est.value == service.query(*cross)
        relay_scale = service.relay.noise_scale
        # Composed chain: both shard legs plus the two-entry relay.
        assert cross_est.noise_scale > 2.0 * relay_scale
        intra_est = service.estimate(*intra)
        assert intra_est.noise_scale > 0.0


class TestConfidenceCalibration:
    """The satellite bar: empirical coverage of
    ``Estimate.confidence_interval`` within ±3% of nominal at 90%/95%
    over 2000 seeded draws (exact for single-Laplace answers)."""

    def test_all_pairs_coverage(self):
        graph = generators.grid_graph(8, 8)  # 64 vertices, 2016 pairs
        service = serve(
            graph,
            ServingConfig(eps=1.0, mechanism="all-pairs-basic"),
            Rng(20160640),
        )
        vertices = list(graph.vertices())
        pairs = list(itertools.combinations(vertices, 2))[:2000]
        assert len(pairs) == 2000
        sweep = all_pairs_dijkstra(graph)
        estimates = service.estimate_batch(pairs)
        for level in (0.90, 0.95):
            covered = sum(
                1
                for (s, t), estimate in zip(pairs, estimates)
                if estimate.confidence_interval(level)[0]
                <= sweep[s][t]
                <= estimate.confidence_interval(level)[1]
            )
            coverage = covered / len(pairs)
            assert abs(coverage - level) <= 0.03, (level, coverage)


class TestSynopsisError:
    def test_unknown_kind_raises_typed_error(self):
        import json as _json

        document = _json.dumps(
            {
                "format": "repro-synopsis",
                "version": 1,
                "kind": "wormhole",
                "eps": 1.0,
                "delta": 0.0,
            }
        )
        with pytest.raises(SynopsisError) as excinfo:
            synopsis_from_json(document)
        message = str(excinfo.value)
        assert "wormhole" in message
        # The typed error lists the registered kinds.
        for kind in ("tree", "all-pairs", "hub-set"):
            assert kind in message

    def test_synopsis_error_hierarchy(self):
        assert issubclass(SynopsisError, GraphError)
        assert issubclass(SynopsisError, ReproError)

    def test_bad_format_and_version_are_synopsis_errors(self):
        import json as _json

        with pytest.raises(SynopsisError):
            synopsis_from_json(_json.dumps({"format": "other"}))
        with pytest.raises(SynopsisError):
            synopsis_from_json(
                _json.dumps({"format": "repro-synopsis", "version": 9})
            )
