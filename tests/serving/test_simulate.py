"""Unit tests for :mod:`repro.serving.simulate`."""

from __future__ import annotations

import pytest

from repro import GraphError, Rng, WeightedGraph
from repro.algorithms import all_pairs_dijkstra
from repro.engine import CSRGraph, kernels
from repro.graphs import generators
from repro.serving import ServingConfig, replay_rush_hour
from repro.workloads.queries import uniform_pairs


class TestReplay:
    def test_single_epoch_report(self):
        report = replay_rush_hour(
            Rng(0), rows=5, cols=5, epochs=1, queries_per_epoch=50
        )
        assert report.mechanism == "all-pairs-basic"
        assert report.num_epochs == 1
        assert report.total_queries == 50
        assert report.ledger_spends == 1
        assert report.queries_per_second > 0
        assert report.mean_abs_error >= 0.0
        assert report.max_abs_error >= report.mean_abs_error

    def test_one_spend_per_epoch(self):
        report = replay_rush_hour(
            Rng(1), rows=5, cols=5, epochs=3, queries_per_epoch=20
        )
        assert report.ledger_spends == 3
        assert len(report.epochs) == 3
        assert [e.epoch for e in report.epochs] == [0, 1, 2]

    def test_weight_bound_uses_covering_mechanism(self):
        report = replay_rush_hour(
            Rng(2),
            ServingConfig(weight_bound=4.0),
            rows=5,
            cols=5,
            epochs=1,
            queries_per_epoch=20,
        )
        assert report.mechanism == "bounded-weight"

    def test_deterministic_given_seed(self):
        a = replay_rush_hour(Rng(3), rows=4, cols=4, queries_per_epoch=30)
        b = replay_rush_hour(Rng(3), rows=4, cols=4, queries_per_epoch=30)
        assert a.mean_abs_error == b.mean_abs_error
        assert a.max_abs_error == b.max_abs_error

    def test_as_dict_is_json_safe(self):
        import json

        report = replay_rush_hour(
            Rng(4), rows=4, cols=4, queries_per_epoch=10
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["epochs"] == 1
        assert payload["total_queries"] == 10

    def test_invalid_args(self):
        with pytest.raises(GraphError):
            replay_rush_hour(Rng(0), epochs=0)
        with pytest.raises(GraphError):
            replay_rush_hour(Rng(0), queries_per_epoch=0)


def _digraph(n: int, rng: Rng) -> WeightedGraph:
    """A directed cycle plus random chords: strongly connected."""
    graph = WeightedGraph(directed=True)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, rng.uniform(0.5, 3.0))
    for _ in range(2 * n):
        u, v = rng.integer(0, n), rng.integer(0, n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(0.5, 3.0))
    return graph


class TestGroundTruth:
    """The replay's true distances are gathered from blocked index
    sweeps over the distinct sources; they must be what a dict-of-dicts
    sweep reads, whatever the block size."""

    @pytest.mark.parametrize("block", [None, 1, 3, 7])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: generators.assign_random_weights(
                generators.grid_graph(7, 8), rng, low=0.5, high=3.0
            ),
            lambda rng: _digraph(40, rng),
        ],
        ids=["grid", "digraph"],
    )
    def test_equals_all_pairs_dijkstra(self, monkeypatch, make, block):
        rng = Rng(11)
        graph = make(rng)
        if block is not None:
            monkeypatch.setattr(
                kernels, "SWEEP_BLOCK_BYTES", block * 8 * graph.num_vertices
            )
        # Repeated sources and repeated pairs, in no order.
        pairs = uniform_pairs(graph, 150, rng)
        sweep = all_pairs_dijkstra(graph, sources={s for s, _ in pairs})
        csr = CSRGraph.from_graph(graph)
        exact = kernels.pair_distances(
            csr,
            csr.indices_of([s for s, _ in pairs]),
            csr.indices_of([t for _, t in pairs]),
        )
        assert exact.tolist() == [sweep[s][t] for s, t in pairs]

    @pytest.mark.parametrize(
        "config, mean, worst",
        [
            (ServingConfig(), 1723.8759761175718, 10300.217492277028),
            (ServingConfig(shards=2), 250.11207002433432, 5015.580857008221),
            (
                ServingConfig(eps=10.0, mechanism="hub-set"),
                11.190715002707746,
                43.16534585910754,
            ),
        ],
        ids=["auto", "sharded", "hub-set"],
    )
    def test_seeded_replay_errors_are_pinned(self, config, mean, worst):
        # Recorded from the all-pairs dict sweep the ground truth used
        # to come from.
        report = replay_rush_hour(
            Rng(7), config, rows=8, cols=8, epochs=2, queries_per_epoch=200
        )
        assert report.mean_abs_error == mean
        assert report.max_abs_error == worst
