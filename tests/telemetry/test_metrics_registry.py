"""Tests for the metrics registry and its exporters
(:mod:`repro.telemetry.registry`, :mod:`repro.telemetry.export`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import (
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    QuantileSketch,
    SamplingProfiler,
    Telemetry,
    Tracer,
)
from repro.telemetry.export import (
    BUDGET_GAUGES,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    budget_gauges,
    snapshot_budgets,
    prometheus_label_name,
    prometheus_name,
    snapshot_to_prometheus,
    validate_snapshot,
)
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)

DATA = Path(__file__).parent / "data"


def _golden_registry() -> MetricsRegistry:
    """The fixed registry behind the committed golden files."""
    reg = MetricsRegistry()
    reg.counter("demo.requests", route="intra").inc(3)
    reg.counter("demo.requests", route="cross").inc()
    reg.gauge("budget.eps.remaining", tenant="west").set(0.75)
    reg.gauge("budget.eps.remaining", tenant="east").set(0.25)
    # A hostile tenant name: backslash, double quote, and newline all
    # need escaping in the Prometheus exposition (in that order —
    # escaping the backslash last would corrupt the other escapes).
    reg.gauge(
        "budget.eps.remaining", tenant='we"st\\prod\nstaging'
    ).set(0.5)
    h = reg.histogram("demo.latency", service="distance")
    h.observe_many([0.001 * (i + 1) for i in range(100)])
    reg.histogram("demo.empty", service="distance")
    return reg


def _golden_document() -> dict:
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "metrics": _golden_registry().snapshot(),
        "spans": [],
    }


class TestRegistry:
    def test_interning_same_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", route="x")
        b = reg.counter("hits", route="x")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", route="x").inc()
        reg.counter("hits", route="y").inc(2)
        values = {m.labels: m.value for m in reg.metrics()}
        assert values == {
            (("route", "x"),): 1,
            (("route", "y"),): 2,
        }

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(TelemetryError):
            reg.gauge("thing")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("hits").inc(-1)

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(5.0)
        g.add(-2.0)
        assert g.value == 3.0

    def test_instance_labels_ordinal_per_base_set(self):
        reg = MetricsRegistry()
        first = reg.instance_labels(tenant="a")
        second = reg.instance_labels(tenant="a")
        other = reg.instance_labels(tenant="b")
        assert first == {"tenant": "a", "instance": "0"}
        assert second == {"tenant": "a", "instance": "1"}
        assert other == {"tenant": "b", "instance": "0"}

    def test_merged_histogram_across_label_sets(self):
        reg = MetricsRegistry()
        reg.histogram("lat", route="x").observe(1.0)
        reg.histogram("lat", route="y").observe(3.0)
        merged = reg.merged_histogram("lat")
        assert merged.count == 2
        assert reg.merged_histogram("absent") is None

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.clear()
        assert reg.metrics() == []


class TestNullRegistry:
    def test_null_singletons_and_noop(self):
        reg = NullRegistry()
        assert not reg.enabled
        assert reg.counter("x") is NULL_COUNTER
        assert reg.gauge("x") is NULL_GAUGE
        assert reg.histogram("x") is NULL_HISTOGRAM
        reg.counter("x").inc(5)
        reg.histogram("x").observe(1.0)
        assert reg.metrics() == []
        assert reg.snapshot() == []

    def test_disabled_telemetry_uses_nulls(self):
        t = Telemetry(enabled=False)
        assert not t.enabled
        assert t.registry.counter("x") is NULL_COUNTER


class TestGoldenFiles:
    def test_json_snapshot_matches_golden(self):
        produced = json.dumps(_golden_document(), indent=2) + "\n"
        expected = (DATA / "golden_snapshot.json").read_text()
        assert produced == expected

    def test_prometheus_exposition_matches_golden(self):
        produced = snapshot_to_prometheus(_golden_document())
        expected = (DATA / "golden_snapshot.prom").read_text()
        assert produced == expected

    def test_golden_json_round_trips_through_validate(self):
        document = json.loads((DATA / "golden_snapshot.json").read_text())
        validate_snapshot(document)  # should not raise
        text = snapshot_to_prometheus(document)
        assert 'demo_requests{route="intra"} 3' in text


class TestExport:
    def test_prometheus_name_sanitization(self):
        assert prometheus_name("serving.query.latency") == (
            "serving_query_latency"
        )
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", label='va"l\\ue\n').inc()
        doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "metrics": reg.snapshot(),
            "spans": [],
        }
        text = snapshot_to_prometheus(doc)
        assert 'label="va\\"l\\\\ue\\n"' in text

    def test_label_names_sanitized(self):
        # Label NAMES have a stricter charset than metric names: no
        # colons.  Names arriving from a snapshot document (not only
        # from Python kwargs) must be sanitized too.
        assert prometheus_label_name("route") == "route"
        assert prometheus_label_name("shard:id") == "shard_id"
        assert prometheus_label_name("9th") == "_9th"
        doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "metrics": [
                {
                    "name": "c",
                    "kind": "counter",
                    "labels": {"shard:id": "0"},
                    "value": 1,
                }
            ],
            "spans": [],
        }
        text = snapshot_to_prometheus(doc)
        assert 'shard_id="0"' in text
        assert "shard:id" not in text

    def test_validate_rejects_malformed(self):
        with pytest.raises(TelemetryError):
            validate_snapshot({"format": "something-else"})
        with pytest.raises(TelemetryError):
            validate_snapshot(
                {"format": SNAPSHOT_FORMAT, "version": 999}
            )
        with pytest.raises(TelemetryError):
            validate_snapshot(
                {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}
            )


class TestTelemetryBundle:
    def test_snapshot_document_shape(self):
        t = Telemetry()
        t.registry.counter("hits").inc()
        with t.span("work"):
            pass
        doc = t.snapshot()
        assert doc["format"] == SNAPSHOT_FORMAT
        assert doc["version"] == SNAPSHOT_VERSION
        assert len(doc["metrics"]) == 1
        assert len(doc["spans"]) == 1
        validate_snapshot(doc)

    def test_prometheus_text_shorthand(self):
        t = Telemetry()
        t.registry.counter("hits").inc(2)
        assert "hits 2" in t.prometheus_text()

    def test_clear_resets_both_halves(self):
        t = Telemetry()
        t.registry.counter("hits").inc()
        with t.span("work"):
            pass
        t.clear()
        doc = t.snapshot()
        assert doc["metrics"] == []
        assert doc["spans"] == []

    def test_histogram_quantile_passthrough(self):
        t = Telemetry()
        h = t.registry.histogram("lat")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        assert isinstance(h.sketch, QuantileSketch)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0

    @pytest.mark.parametrize(
        "build, keyword",
        [
            pytest.param(Telemetry, "registry", id="Telemetry-registry"),
            pytest.param(Telemetry, "tracer", id="Telemetry-tracer"),
            pytest.param(Telemetry, "audit", id="Telemetry-audit"),
            pytest.param(
                Tracer, "max_finished_roots", id="Tracer-max_finished_roots"
            ),
            pytest.param(
                QuantileSketch, "relative_accuracy",
                id="QuantileSketch-relative_accuracy",
            ),
            pytest.param(
                lambda **kw: Histogram("h", **kw), "relative_accuracy",
                id="Histogram-relative_accuracy",
            ),
            pytest.param(FlightRecorder, "capacity", id="Flight-capacity"),
            pytest.param(FlightRecorder, "quantile", id="Flight-quantile"),
            pytest.param(FlightRecorder, "warmup", id="Flight-warmup"),
            pytest.param(
                SamplingProfiler, "interval_seconds",
                id="Sampler-interval_seconds",
            ),
            pytest.param(
                lambda **kw: SamplingProfiler().start(**kw),
                "target_thread_id", id="Sampler.start-target_thread_id",
            ),
        ],
    )
    def test_dropped_knobs_are_unknown_keywords(self, build, keyword):
        # Each is a constant now: no caller ever set it.
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: None})


class TestBudgetPosition:
    def test_gauges_follow_the_spend(self):
        assert budget_gauges(1.0, 1e-6, 0.25, 0.0) == {
            "budget.eps.spent": 1.0 - (1.0 - 0.25),
            "budget.eps.remaining": 0.75,
            "budget.delta.remaining": 1e-6,
        }
        assert tuple(budget_gauges(1.0, 0.0, 0.1, 0.0)) == BUDGET_GAUGES

    def test_nothing_spent_is_the_full_budget(self):
        assert budget_gauges(0.3, 1e-5, 0.0, 0.0) == {
            "budget.eps.spent": 0.0,
            "budget.eps.remaining": 0.3,
            "budget.delta.remaining": 1e-5,
        }

    def test_snapshot_reader_keeps_only_tenant_budget_gauges(self):
        registry = MetricsRegistry()
        for name, value in budget_gauges(1.0, 0.0, 0.5, 0.0).items():
            registry.gauge(name, tenant="west").set(value)
        registry.gauge("budget.eps.remaining", tenant="east").set(1.0)
        registry.counter("budget.spends", tenant="west").inc()
        registry.gauge("budget.eps.remaining").set(9.0)  # no tenant
        registry.gauge("serving.cache.size", tenant="west").set(3.0)
        budgets = snapshot_budgets(registry.snapshot())
        assert list(budgets) == ["east", "west"]
        assert budgets["east"] == {"budget.eps.remaining": 1.0}
        assert budgets["west"] == budget_gauges(1.0, 0.0, 0.5, 0.0)
        assert snapshot_budgets([]) == {}
