"""Tests for the serving benchmark's own helpers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from perfbench import inputs, speed, stats, trace
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- tail sample counts -----------------------------------------------------


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert stats.beyond(list(range(1000)), stats.TAIL_PERCENTILE) == stats.TAIL_SAMPLES
    assert stats.beyond(list(range(900)), stats.TAIL_PERCENTILE) < stats.TAIL_SAMPLES


# -- speed readings ----------------------------------------------------------


def test_speed_readings_bracket_groups_of_operations():
    kernel = iter([100, 200, 300, 400])
    meter = speed.Meter(lookup=lambda: next(kernel), sweep=lambda: 7)
    half = speed.GROUP_NS // 2
    first = meter.start()
    meter.ran(half)
    second = meter.start()
    meter.ran(half)
    third = meter.start()
    meter.ran(1)
    meter.stop()
    assert (first, second, third) == (0, 0, 1)
    assert meter.readings == [100, 200, 300]
    assert meter.factor(first) == speed.LOOKUP_NS / 150
    assert meter.factor(third) == speed.LOOKUP_NS / 250
    assert meter.start() == 3 and meter.readings[-1] == 400
    assert meter.sweep_ns() == 7
    assert speed.Lookups()() > 0 and speed.Sweeps()() > 0


# -- spans and self time ----------------------------------------------------


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    # op [0, 100]: a [10, 60] holds b [20, 50]; c [70, 90].
    rec = trace.Recorder(clock=_clock(0, 10, 20, 50, 60, 70, 90, 100))
    root = rec.begin_op("query")
    a = rec.open(rec.name_id("sharding.query"))
    b = rec.open(rec.name_id("synopsis.distance"))
    rec.close(b)
    rec.close(a)
    c = rec.open(rec.name_id("telemetry.metric"))
    rec.close(c)
    rec.end_op(root)
    analysis = trace.analyze(rec)
    assert analysis.problems == []
    assert analysis.self_ns.tolist() == [100 - 50 - 20, 50 - 30, 30, 20]
    assert int(analysis.self_ns.sum()) == 100
    layers = analysis.self_by_layer()["query"]
    assert layers["bench"] == 30 and layers["sharding"] == 20
    assert layers["synopsis"] == 30 and layers["telemetry"] == 20
    assert analysis.op_totals() == {"query": (1, 100)}


def test_wrapper_cost_moves_to_the_trace_layer_and_keeps_the_sum():
    rec = trace.Recorder(clock=_clock(0, 10, 60, 100))
    root = rec.begin_op("query")
    row = rec.open(rec.name_id("apsp.estimate"))
    rec.close(row)
    rec.end_op(root)
    analysis = trace.analyze(rec, inside_ns=5, outside_ns=7)
    assert analysis.attributed.tolist() == [50 - 7, 50 - 5]
    layers = analysis.self_by_layer()["query"]
    assert layers["trace"] == 12
    assert sum(layers.values()) == 100


def test_integrity_flags_overlapping_siblings():
    rec = trace.Recorder(clock=_clock(0, 10, 50, 40, 60, 100))
    root = rec.begin_op("batch")
    first = rec.open(rec.name_id("batching.run"))
    rec.close(first)
    second = rec.open(rec.name_id("batching.run"))
    rec.close(second)
    rec.end_op(root)
    assert "sibling spans overlap" in trace.analyze(rec).problems


def test_wrapped_function_records_only_inside_an_operation():
    rec = trace.Recorder()
    double = trace._traced(lambda x: 2 * x, "engine.sweep", rec)
    assert double(2) == 4
    assert len(rec.end) == 0
    root = rec.begin_op("setup")
    assert double(3) == 6
    rec.end_op(root)
    analysis = trace.analyze(rec)
    assert analysis.problems == []
    assert analysis.parent.tolist() == [-1, 0]
    assert analysis.op.tolist() == [0, 0]
    assert analysis.names[analysis.name[1]] == "engine.sweep"


# -- seeded inputs ----------------------------------------------------------


def test_pair_streams_repeat_for_a_seed_and_differ_across_seeds():
    first = inputs.PairStream(5, "point").take(5000)
    chunked = inputs.PairStream(5, "point")
    again = np.concatenate([chunked.take(7), chunked.take(4993)])
    assert np.array_equal(first, again)
    assert not np.array_equal(first, inputs.PairStream(6, "point").take(5000))
    assert (first[:, 0] <= first[:, 1]).all()
    position = np.arange(len(first))
    assert (first[position % inputs.SELF_EVERY == inputs.SELF_EVERY - 1, 0]
            == first[position % inputs.SELF_EVERY == inputs.SELF_EVERY - 1, 1]).all()


def test_hot_pairs_repeat_for_a_seed_with_fixed_trip_lengths():
    table = inputs.hot_pair_table(3)
    assert np.array_equal(table, inputs.hot_pair_table(3))
    other = inputs.hot_pair_table(4)
    assert not np.array_equal(table, other)
    def hops(pairs):
        rows, cols = pairs // inputs.COLS, pairs % inputs.COLS
        return np.abs(rows[:, 0] - rows[:, 1]) + np.abs(cols[:, 0] - cols[:, 1])

    assert np.array_equal(hops(table), hops(other))
    low, high = inputs.HOT_HOPS
    assert hops(table).min() >= low and hops(table).max() <= high
    riders = inputs.PairStream(3, "point", table).take(2000)
    assert np.array_equal(riders, inputs.PairStream(3, "point", table).take(2000))


def test_weight_updates_repeat_for_a_seed_and_stay_regional():
    base = np.random.default_rng(0).uniform(1.0, 3.0, size=200)
    u = np.arange(200) % inputs.NUM_VERTICES
    v = (u + 1) % inputs.NUM_VERTICES
    mid = inputs.edge_midpoints(u, v)
    epoch = inputs.epoch_weights(1, base, mid, 1)
    assert np.array_equal(epoch, inputs.epoch_weights(1, base, mid, 1))
    assert not np.array_equal(epoch, inputs.epoch_weights(2, base, mid, 1))
    region = np.zeros(200, dtype=bool)
    region[50:80] = True
    update = inputs.regional_weights(1, epoch, region, 0)
    assert np.array_equal(update, inputs.regional_weights(1, epoch, region, 0))
    assert not np.array_equal(update, inputs.regional_weights(2, epoch, region, 0))
    assert np.array_equal(update[~region], epoch[~region])
    assert (update[region] >= epoch[region]).all()


def test_road_graph_weights_follow_the_seed():
    first = inputs.road_graph(7).weight_vector()
    assert np.array_equal(first, inputs.road_graph(7).weight_vector())
    assert not np.array_equal(first, inputs.road_graph(8).weight_vector())


def test_rush_hour_never_refreshes_a_shard_twice_in_one_epoch():
    kinds = inputs.cycle_kinds(9)
    regional_since_refresh = None
    for kind in kinds:
        if kind == "refresh":
            regional_since_refresh = 0
        elif kind == "refresh_shard":
            assert regional_since_refresh == 0, "regional refresh before any refresh"
            regional_since_refresh += 1
    assert kinds.count("refresh") == kinds.count("refresh_shard") == 9
    assert kinds[0] == "refresh"


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_lists_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
