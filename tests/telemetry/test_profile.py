"""Unit tests for the phase profiler, the stack sampler, and the
slow-query flight recorder (:mod:`repro.telemetry.profile`)."""

from __future__ import annotations

import json
import threading
import time
import tracemalloc

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import (
    FLIGHT_FORMAT,
    NULL_FLIGHT,
    NULL_PROFILER,
    FlightRecorder,
    PhaseProfiler,
    PROFILE_FORMAT,
    SamplingProfiler,
    Telemetry,
    Tracer,
    profile_document,
    samples_to_collapsed,
    span_phase_breakdown,
    validate_flight,
    validate_profile,
)


def _spin(seconds: float) -> None:
    """Busy-wait so both wall and CPU clocks advance."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestPhaseProfiler:
    def test_attribution_sums_to_root_wall(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=False).attach(tracer)
        with tracer.span("outer"):
            _spin(0.004)
            with tracer.span("inner"):
                _spin(0.004)
        profiler.detach()
        phases = profiler.phases()
        assert set(phases) == {"outer", "inner"}
        root = tracer.finished_roots()[0]
        total_self = sum(s.wall_self_seconds for s in phases.values())
        assert total_self == pytest.approx(
            root.duration_seconds, rel=0.10
        )
        assert profiler.total_wall_seconds() == pytest.approx(total_self)
        # The parent's self time excludes the child.
        assert (
            phases["outer"].wall_self_seconds
            < phases["outer"].wall_seconds
        )

    def test_counts_and_summary_order(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=False).attach(tracer)
        for _ in range(3):
            with tracer.span("fast"):
                pass
        with tracer.span("slow"):
            _spin(0.003)
        profiler.detach()
        rows = profiler.phase_summary()
        assert [r["phase"] for r in rows] == ["slow", "fast"]
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["fast"]["count"] == 3
        assert by_phase["slow"]["count"] == 1

    def test_allocation_delta_tracked(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=True).attach(tracer)
        with tracer.span("alloc"):
            keep = [list(range(1000)) for _ in range(50)]
        profiler.detach()
        assert profiler.phases()["alloc"].alloc_net_bytes > 0
        # The profiler started tracemalloc, so detaching stops it.
        assert not tracemalloc.is_tracing()
        del keep

    def test_allocation_tracing_is_opt_in(self):
        tracer = Tracer()
        profiler = PhaseProfiler().attach(tracer)
        assert not tracemalloc.is_tracing()
        with tracer.span("alloc"):
            keep = [list(range(1000)) for _ in range(50)]
        profiler.detach()
        assert profiler.phases()["alloc"].alloc_net_bytes == 0
        del keep

    def test_double_attach_other_tracer_rejected(self):
        profiler = PhaseProfiler(trace_allocations=False)
        first = Tracer()
        profiler.attach(first)
        assert profiler.attach(first) is profiler  # idempotent
        with pytest.raises(TelemetryError, match="already attached"):
            profiler.attach(Tracer())
        profiler.detach()
        assert not profiler.attached

    def test_span_open_before_attach_is_ignored(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=False)
        with tracer.span("early"):
            profiler.attach(tracer)
            with tracer.span("late"):
                pass
        profiler.detach()
        assert set(profiler.phases()) == {"late"}

    def test_clear_drops_stats(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=False).attach(tracer)
        with tracer.span("x"):
            pass
        profiler.clear()
        assert profiler.phases() == {}
        profiler.detach()

    def test_null_profiler_is_inert(self):
        tracer = Tracer()
        assert NULL_PROFILER.attach(tracer) is NULL_PROFILER
        assert not NULL_PROFILER.enabled
        with tracer.span("x"):
            pass
        assert NULL_PROFILER.phases() == {}

    def test_with_profiler_attaches_and_records(self):
        telemetry = Telemetry()
        profiler = PhaseProfiler(trace_allocations=False)
        derived = telemetry.with_profiler(profiler)
        assert derived.profiler is profiler
        assert profiler.attached
        with derived.span("phase.a"):
            pass
        assert "phase.a" in profiler.phases()
        profiler.detach()

    def test_with_profiler_on_disabled_bundle_never_attaches(self):
        disabled = Telemetry(enabled=False)
        profiler = PhaseProfiler(trace_allocations=False)
        derived = disabled.with_profiler(profiler)
        assert derived.profiler is profiler
        assert not profiler.attached


class TestSamplingProfiler:
    def test_final_sample_guarantees_output(self):
        sampler = SamplingProfiler()
        sampler.start()
        sampler.stop()
        assert sampler.sample_count >= 1
        text = sampler.collapsed()
        assert text.endswith("\n")
        stack, _, count = text.splitlines()[0].rpartition(" ")
        assert ";" in stack
        assert int(count) >= 1

    def test_samples_accumulate_while_running(self):
        sampler = SamplingProfiler()
        sampler.start()
        _spin(0.03)
        sampler.stop()
        assert sampler.sample_count >= 2
        assert not sampler.running
        sampler.clear()
        assert sampler.sample_count == 0

    def test_double_start_rejected(self):
        sampler = SamplingProfiler()
        sampler.start()
        try:
            with pytest.raises(TelemetryError, match="already running"):
                sampler.start()
        finally:
            sampler.stop()

    def test_collapsed_round_trips_string_keys(self):
        counts = {("a.f", "b.g"): 2, ("a.f",): 1}
        text = samples_to_collapsed(counts)
        assert text == "a.f 1\na.f;b.g 2\n"
        # A JSON round trip turns tuple keys into joined strings.
        joined = {";".join(k): v for k, v in counts.items()}
        assert samples_to_collapsed(joined) == text
        assert samples_to_collapsed({}) == ""


class TestProfileDocument:
    def _document(self):
        tracer = Tracer()
        profiler = PhaseProfiler(trace_allocations=False).attach(tracer)
        with tracer.span("work"):
            _spin(0.002)
        profiler.detach()
        sampler = SamplingProfiler()
        sampler.start()
        sampler.stop()
        return profile_document(profiler, sampler)

    def test_document_shape_and_validation(self):
        document = self._document()
        assert document["format"] == PROFILE_FORMAT
        assert document["phases"][0]["phase"] == "work"
        assert document["samples"] >= 1
        assert document["collapsed"]
        assert validate_profile(document) is document
        # JSON round trip stays valid.
        assert validate_profile(json.loads(json.dumps(document)))

    def test_validation_fail_closed(self):
        with pytest.raises(TelemetryError, match="JSON object"):
            validate_profile([])
        with pytest.raises(TelemetryError, match="format"):
            validate_profile({"format": "other"})
        with pytest.raises(TelemetryError, match="version"):
            validate_profile({"format": PROFILE_FORMAT, "version": 99})
        with pytest.raises(TelemetryError, match="phases"):
            validate_profile(
                {"format": PROFILE_FORMAT, "version": 1}
            )


class TestSpanPhaseBreakdown:
    def test_values_sum_to_root_duration(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                _spin(0.002)
            with tracer.span("child"):
                pass
        root = tracer.finished_roots()[0]
        breakdown = span_phase_breakdown(root)
        assert set(breakdown) == {"root", "child"}
        assert sum(breakdown.values()) == pytest.approx(
            root.duration_seconds, rel=1e-6
        )


class TestFlightRecorder:
    def test_fixed_threshold_captures(self):
        recorder = FlightRecorder(threshold_seconds=0.01)
        assert not recorder.consider(0.005, route="point")
        assert recorder.consider(
            0.05,
            pair=("a", "b"),
            route="point",
            mechanism="tree",
            epoch=2,
            tenant="t",
            cache_hit=False,
        )
        assert recorder.captured == 1
        assert recorder.considered == 2
        record = recorder.records()[0]
        assert record["pair"] == ["a", "b"]
        assert record["mechanism"] == "tree"
        assert record["epoch"] == 2
        assert record["adaptive"] is False
        assert record["threshold_seconds"] == pytest.approx(0.01)
        assert record["span"] is None

    def test_cold_without_fallback_captures_nothing(self):
        recorder = FlightRecorder()
        for _ in range(FlightRecorder.warmup - 1):
            assert not recorder.consider(100.0)
        assert recorder.current_threshold() is None
        assert recorder.captured == 0

    def test_adaptive_threshold_after_warmup(self):
        recorder = FlightRecorder()
        for _ in range(FlightRecorder.warmup):
            recorder.consider(0.001, route="point")
        threshold = recorder.current_threshold("point")
        assert threshold == pytest.approx(0.001, rel=0.01)
        assert recorder.consider(0.01, route="point")
        assert recorder.records()[-1]["adaptive"] is True
        # Per-route sketches: another route is still cold.
        assert recorder.current_threshold("batch") is None

    def test_slow_query_does_not_raise_its_own_bar(self):
        recorder = FlightRecorder()
        for _ in range(FlightRecorder.warmup):
            recorder.consider(0.001)
        # The sketch is warm; the next latency is judged against the
        # p99 *before* it is observed.
        assert recorder.consider(1.0)

    def test_ring_eviction(self):
        capacity = FlightRecorder.capacity
        recorder = FlightRecorder(threshold_seconds=0.001)
        for i in range(capacity + 3):
            recorder.consider(0.01, pair=(i, i))
        assert len(recorder) == capacity
        assert recorder.captured == capacity + 3
        pairs = [r["pair"][0] for r in recorder.records()]
        assert pairs == [str(i) for i in range(3, capacity + 3)]

    def test_span_subtree_and_breakdown_recorded(self):
        tracer = Tracer()
        with tracer.span("query.point") as span:
            with tracer.span("engine.sssp"):
                _spin(0.002)
        recorder = FlightRecorder(threshold_seconds=0.0001)
        assert recorder.consider(0.01, span=span)
        record = recorder.records()[0]
        assert record["span"]["name"] == "query.point"
        assert set(record["phases"]) == {"query.point", "engine.sssp"}

    def test_document_round_trip(self):
        recorder = FlightRecorder(threshold_seconds=0.001)
        recorder.consider(0.01, pair=("s", "t"))
        document = recorder.to_document()
        assert document["format"] == FLIGHT_FORMAT
        assert document["captured"] == 1
        parsed = json.loads(json.dumps(document))
        assert validate_flight(parsed)["records"][0]["pair"] == ["s", "t"]

    def test_document_keeps_the_recorder_constants(self):
        document = FlightRecorder().to_document()
        assert (
            document["capacity"], document["quantile"], document["warmup"]
        ) == (64, 0.99, 200)

    def test_validation_and_parameters_fail_closed(self):
        with pytest.raises(TelemetryError, match="threshold"):
            FlightRecorder(threshold_seconds=-1.0)
        with pytest.raises(TelemetryError, match="format"):
            validate_flight({"format": "nope"})
        with pytest.raises(TelemetryError, match="records"):
            validate_flight({"format": FLIGHT_FORMAT, "version": 1})

    def test_clear_resets_counts_and_sketches(self):
        recorder = FlightRecorder(threshold_seconds=0.001)
        for _ in range(FlightRecorder.warmup):
            recorder.consider(0.01)
        assert recorder.current_threshold() == pytest.approx(0.01, rel=0.01)
        recorder.clear()
        assert recorder.captured == 0
        assert recorder.considered == 0
        assert recorder.current_threshold() == pytest.approx(0.001)

    def test_null_flight_is_inert(self):
        assert not NULL_FLIGHT.enabled
        assert NULL_FLIGHT.consider(1e9) is False
        assert NULL_FLIGHT.records() == []

    def test_with_flight_derivation(self):
        telemetry = Telemetry()
        recorder = FlightRecorder(threshold_seconds=0.001)
        derived = telemetry.with_flight(recorder)
        assert derived.flight is recorder
        assert telemetry.flight is NULL_FLIGHT
        assert derived.registry is telemetry.registry
