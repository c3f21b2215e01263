"""Unit tests for :mod:`repro.serving.simulate`."""

from __future__ import annotations

import pytest

from repro import GraphError, Rng
from repro.serving import ServingConfig, replay_rush_hour


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
