"""Unit tests for :mod:`repro.serving.batching`."""

from __future__ import annotations

import pytest

from repro import (
    AllPairsBasicRelease,
    DisconnectedGraphError,
    GraphError,
    PrivacyParams,
    Rng,
    VertexNotFoundError,
    WeightedGraph,
)
from repro.graphs import generators
from repro.serving import (
    AllPairsSynopsis,
    BatchPlanner,
    BudgetLedger,
    fresh_batch,
)
from repro.serving.synopsis import build_single_pair_synopsis, canonical_pair


@pytest.fixture
def synopsis(rng):
    graph = generators.grid_graph(4, 4)
    return AllPairsSynopsis.from_release(
        AllPairsBasicRelease(graph, 1.0, rng)
    )


class TestBatchPlanner:
    def test_answers_align_with_input(self, synopsis):
        planner = BatchPlanner(synopsis)
        pairs = [((0, 0), (3, 3)), ((1, 1), (2, 2)), ((0, 0), (3, 3))]
        report = planner.run(pairs)
        assert len(report.answers) == 3
        assert report.answers[0] == report.answers[2]
        assert report.answers == [
            synopsis.distance(s, t) for s, t in pairs
        ]

    def test_dedupes_unordered_pairs(self, synopsis):
        planner = BatchPlanner(synopsis)
        report = planner.run([((0, 0), (3, 3)), ((3, 3), (0, 0))])
        assert report.num_queries == 2
        assert report.num_unique == 1
        assert report.answers[0] == report.answers[1]

    def test_cache_shared_across_batches(self, synopsis):
        cache = {}
        planner = BatchPlanner(synopsis, cache=cache)
        first = planner.run([((0, 0), (1, 1))])
        assert first.cache_hits == 0
        second = planner.run([((1, 1), (0, 0))])
        assert second.cache_hits == 1
        assert canonical_pair((0, 0), (1, 1)) in cache

    def test_report_metrics(self, synopsis):
        report = BatchPlanner(synopsis).run(
            [((0, 0), (i, j)) for i in range(4) for j in range(4)]
        )
        assert report.num_queries == 16
        assert report.elapsed_seconds >= 0.0
        assert report.queries_per_second >= 0.0

    def test_empty_batch(self, synopsis):
        report = BatchPlanner(synopsis).run([])
        assert report.answers == []
        assert report.queries_per_second == 0.0

    def test_num_unique_is_distinct_pair_count_with_cache_hits(
        self, synopsis
    ):
        """Regression: ``num_unique`` must be the batch's true
        distinct-pair count even when some of those pairs are served
        from the cross-batch cache, with cache hits reported in their
        own counter (they used to be folded into ``num_unique``)."""
        cache = {}
        planner = BatchPlanner(synopsis, cache=cache)
        planner.run([((0, 0), (1, 1)), ((0, 0), (2, 2))])
        report = planner.run(
            [
                ((0, 0), (1, 1)),  # cached by the earlier batch
                ((1, 1), (0, 0)),  # in-batch duplicate of the above
                ((0, 0), (2, 2)),  # cached by the earlier batch
                ((0, 0), (3, 3)),  # fresh
                ((3, 3), (0, 0)),  # in-batch duplicate of the fresh
            ]
        )
        assert report.num_queries == 5
        assert report.num_unique == 3  # the distinct unordered pairs
        assert report.cache_hits == 2  # pairs an earlier batch resolved


class TestFreshBatch:
    def test_one_vectorized_release_serves_whole_batch(self, rng):
        graph = generators.grid_graph(4, 4)
        pairs = [((0, 0), (3, 3)), ((0, 0), (1, 2)), ((3, 3), (0, 0))]
        synopsis, report = fresh_batch(graph, pairs, 1.0, rng)
        assert report.num_queries == 3
        assert len(report.answers) == 3
        assert report.answers[0] == report.answers[2]
        # The synopsis can re-serve the workload for free afterwards.
        assert synopsis.distance((0, 0), (3, 3)) == report.answers[0]
        assert synopsis.params.eps == 1.0

    def test_deterministic_given_seed(self):
        graph = generators.grid_graph(3, 3)
        pairs = [((0, 0), (2, 2)), ((0, 1), (2, 0))]
        _, a = fresh_batch(graph, pairs, 1.0, Rng(5))
        _, b = fresh_batch(graph, pairs, 1.0, Rng(5))
        assert a.answers == b.answers

    def test_build_time_reported_separately_from_serving(self, rng):
        """Regression: the one-time release build must land in
        ``build_seconds``, not in ``elapsed_seconds`` — folding it
        into the serving wall-clock silently deflated
        ``queries_per_second``."""
        graph = generators.grid_graph(6, 6)
        pairs = [((0, 0), (5, 5)), ((0, 0), (3, 3)), ((2, 2), (4, 4))]
        _, report = fresh_batch(graph, pairs, 1.0, rng)
        assert report.build_seconds > 0.0
        assert report.elapsed_seconds >= 0.0
        if report.elapsed_seconds > 0.0:
            assert report.queries_per_second == pytest.approx(
                report.num_queries / report.elapsed_seconds
            )

    def test_directed_graph_refused_before_spending(self):
        """Pairs are keyed unordered, so both directions of a directed
        graph would get one released value."""
        graph = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 0, 5.0), (1, 2, 1.0), (2, 1, 5.0)],
            directed=True,
        )
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(GraphError, match="directed"):
            fresh_batch(graph, [(0, 2), (2, 0)], 1.0, Rng(6), ledger=ledger)
        assert ledger.records() == []
        with pytest.raises(GraphError, match="directed"):
            build_single_pair_synopsis(graph, [(0, 2)], 1.0, Rng(6))

    def test_unknown_vertex_refused_before_spending(self):
        graph = generators.grid_graph(3, 3)
        ledger = BudgetLedger(PrivacyParams(1.0))
        rng = Rng(6)
        with pytest.raises(VertexNotFoundError):
            fresh_batch(
                graph, [((0, 0), (2, 2)), ((0, 0), (9, 9))], 0.5, rng,
                ledger=ledger,
            )
        assert ledger.records() == []
        # Nothing was drawn: the next batch releases what a fresh
        # generator releases.
        _, report = fresh_batch(graph, [((0, 0), (2, 2))], 0.5, rng, ledger)
        _, want = fresh_batch(graph, [((0, 0), (2, 2))], 0.5, Rng(6))
        assert report.answers == want.answers
        assert len(ledger.records()) == 1

    def test_pair_with_no_path_refused_before_spending(self):
        # Two disjoint edges: 0-1 and 2-3.
        graph = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
        ledger = BudgetLedger(PrivacyParams(1.0))
        with pytest.raises(DisconnectedGraphError):
            fresh_batch(graph, [(0, 1), (1, 2)], 0.5, Rng(6), ledger=ledger)
        assert ledger.records() == []
        fresh_batch(graph, [(0, 1), (2, 3)], 0.5, Rng(6), ledger=ledger)
        assert len(ledger.records()) == 1

    def test_standing_synopsis_batches_report_zero_build(self, synopsis):
        report = BatchPlanner(synopsis).run([((0, 0), (1, 1))])
        assert report.build_seconds == 0.0
