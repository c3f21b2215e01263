"""Profiling, event logs, and the flight recorder across the serving
stack: observational purity, config wiring, phase attribution that
adds up, and slow-query exemplar capture."""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro import (
    Rng,
    ServingConfig,
    Telemetry,
    replay_rush_hour,
    serve,
)
from repro.exceptions import TelemetryError
from repro.graphs import generators
from repro.telemetry import (
    NULL_TELEMETRY,
    EventLog,
    FlightRecorder,
    PhaseProfiler,
    read_event_log,
    use_telemetry,
)


def _grid(rows=5, cols=5):
    return generators.grid_graph(rows, cols)


def _answers(telemetry, shards=1):
    """All visible outputs of a fixed seeded serving session."""
    config = ServingConfig(eps=1.0, shards=shards)
    service = serve(_grid(), config, Rng(seed=42), telemetry=telemetry)
    pairs = [((0, 0), (4, 4)), ((1, 2), (3, 0)), ((0, 0), (4, 4))]
    point = service.query((0, 1), (4, 3))
    batch = service.query_batch(pairs)
    estimate = service.estimate((2, 2), (0, 4))
    return (point, tuple(batch.answers), estimate.value, estimate.noise_scale)


def _observed_bundle(tmp_path=None):
    bundle = Telemetry()
    bundle = bundle.with_profiler(PhaseProfiler())
    bundle = bundle.with_flight(
        FlightRecorder(threshold_seconds=0.5)
    )
    log = EventLog(
        tmp_path / "events.jsonl" if tmp_path is not None else None
    )
    return bundle.with_log(log)


class TestObservationalPurity:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bit_identical_with_full_observability(self, shards):
        # The whole PR in one assertion: profiler + flight recorder +
        # event log must never touch the noise stream.
        baseline = _answers(None, shards=shards)
        assert _answers(_observed_bundle(), shards=shards) == baseline

    @pytest.mark.parametrize("shards", [1, 2])
    def test_replay_identical_with_observability(self, shards, tmp_path):
        plain = replay_rush_hour(
            Rng(seed=7), ServingConfig(shards=shards), rows=5, cols=5,
            epochs=2, queries_per_epoch=30,
        )
        config = ServingConfig(
            eps=1.0,
            shards=shards,
            profile=True,
            event_log=str(tmp_path / "events.jsonl"),
        )
        bundle = Telemetry().with_flight(
            FlightRecorder(threshold_seconds=0.5)
        )
        observed = replay_rush_hour(
            Rng(seed=7), config, rows=5, cols=5, epochs=2,
            queries_per_epoch=30, telemetry=bundle,
        )
        assert observed.mean_abs_error == plain.mean_abs_error
        assert observed.max_abs_error == plain.max_abs_error


class TestServeConfigWiring:
    def test_serve_attaches_requested_instruments(self, tmp_path):
        config = ServingConfig(
            eps=1.0,
            profile=True,
            event_log=str(tmp_path / "events.jsonl"),
        )
        bundle = Telemetry().with_flight(FlightRecorder())
        service = serve(_grid(), config, Rng(seed=0), telemetry=bundle)
        assert service.telemetry.profiler.enabled
        assert service.telemetry.flight.enabled
        assert service.telemetry.log.enabled
        # The build itself was profiled.
        assert "synopsis.build" in service.telemetry.profiler.phases()

    def test_profile_leaves_allocation_tracing_off(self):
        # Allocation tracing is opt-in: tracemalloc would tax every
        # later allocation in the process, builds included.
        config = ServingConfig(eps=1.0, profile=True)
        service = serve(_grid(), config, Rng(seed=0), telemetry=Telemetry())
        service.query((0, 0), (4, 4))
        assert service.telemetry.profiler.attached
        assert not tracemalloc.is_tracing()
        del service
        assert not tracemalloc.is_tracing()

    def test_injected_instruments_win_over_config(self):
        profiler = PhaseProfiler(trace_allocations=False)
        flight = FlightRecorder(threshold_seconds=0.5)
        bundle = Telemetry().with_profiler(profiler).with_flight(flight)
        config = ServingConfig(eps=1.0, profile=True)
        service = serve(_grid(), config, Rng(seed=0), telemetry=bundle)
        assert service.telemetry.profiler is profiler
        assert service.telemetry.flight is flight

    def test_profile_ignored_on_disabled_bundle(self):
        config = ServingConfig(eps=1.0, profile=True)
        service = serve(
            _grid(), config, Rng(seed=0), telemetry=NULL_TELEMETRY
        )
        assert not service.telemetry.profiler.enabled

    def test_flight_threshold_validation(self):
        with pytest.raises(TelemetryError, match="flight threshold"):
            FlightRecorder(threshold_seconds=0.0)

    def test_flight_threshold_alone_arms_recorder(self):
        bundle = Telemetry().with_flight(
            FlightRecorder(threshold_seconds=1e-9)
        )
        service = serve(
            _grid(), ServingConfig(eps=1.0), Rng(seed=0), telemetry=bundle
        )
        assert service.telemetry.flight.enabled
        service.query((0, 0), (4, 4))
        assert service.telemetry.flight.captured >= 1

    def test_config_round_trips_new_fields(self):
        config = ServingConfig(
            eps=1.0,
            profile=True,
            event_log="events.jsonl",
        )
        again = ServingConfig.from_json(config.to_json())
        assert again.profile is True
        assert again.event_log == "events.jsonl"


class TestPhaseAttribution:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_replay_phases_sum_to_measured_wall(self, shards):
        profiler = PhaseProfiler(trace_allocations=False)
        bundle = Telemetry().with_profiler(profiler)
        start = time.perf_counter()
        with use_telemetry(bundle), bundle.span("replay.run"):
            replay_rush_hour(
                Rng(seed=3), ServingConfig(shards=shards), rows=6,
                cols=6, epochs=2, queries_per_epoch=50,
                telemetry=bundle,
            )
        measured = time.perf_counter() - start
        attributed = profiler.total_wall_seconds()
        # The acceptance bar: per-phase self times must account for
        # the run's measured wall clock within 10%.
        assert attributed == pytest.approx(measured, rel=0.10)
        phases = profiler.phases()
        expected = {"replay.run", "synopsis.build", "batch.serve",
                    "epoch.refresh", "replay.ground_truth"}
        assert expected <= set(phases)
        if shards > 1:
            assert "hubs.build" in phases

    @pytest.mark.parametrize(
        "mechanism, phases",
        [
            ("auto", set()),
            (
                "hub-set",
                {"engine.hub_rows", "engine.hop_balls", "engine.ball_pairs"},
            ),
        ],
    )
    def test_engine_kernel_spans_only_under_profiler(
        self, mechanism, phases
    ):
        # Unprofiled bundles must not pay for engine.* spans.
        plain = Telemetry()
        with use_telemetry(plain):
            serve(
                _grid(),
                ServingConfig(eps=1.0, mechanism=mechanism),
                Rng(seed=1),
            )

        def walk(span):
            yield span.name
            for child in span.children:
                yield from walk(child)

        names = {
            name
            for root in plain.tracer.finished_roots()
            for name in walk(root)
        }
        assert not any(n.startswith("engine.") for n in names)

        profiler = PhaseProfiler(trace_allocations=False)
        profiled = Telemetry().with_profiler(profiler)
        with use_telemetry(profiled):
            serve(
                _grid(),
                ServingConfig(eps=1.0, mechanism=mechanism),
                Rng(seed=1),
                telemetry=profiled,
            )
        assert any(
            name.startswith("engine.") for name in profiler.phases()
        )
        # A hub build books its sweeps to one phase each.
        assert phases <= set(profiler.phases())


class TestFlightCapture:
    def test_injected_slow_query_captured(self, monkeypatch):
        flight = FlightRecorder(threshold_seconds=0.005)
        bundle = Telemetry().with_flight(flight)
        service = serve(
            _grid(), ServingConfig(eps=1.0), Rng(seed=5),
            telemetry=bundle,
        )
        synopsis = service.synopsis
        original = type(synopsis).distance

        def slow_distance(self, source, target):
            time.sleep(0.02)
            return original(self, source, target)

        monkeypatch.setattr(type(synopsis), "distance", slow_distance)
        value = service.query((0, 0), (4, 4))
        assert flight.captured >= 1
        record = flight.records()[-1]
        assert record["route"] == "point"
        assert record["pair"] == ["(0, 0)", "(4, 4)"]
        assert record["latency_seconds"] > record["threshold_seconds"]
        assert record["span"]["name"] == "query.point"
        assert record["phases"]["query.point"] > 0.0
        # And the answer is the mechanism's, untouched.
        monkeypatch.setattr(type(synopsis), "distance", original)
        assert service.query((0, 0), (4, 4)) == value  # synopsis cache

    def test_sharded_routes_labelled(self):
        flight = FlightRecorder(threshold_seconds=1e-9)
        bundle = Telemetry().with_flight(flight)
        service = serve(
            _grid(), ServingConfig(eps=1.0, shards=2), Rng(seed=6),
            telemetry=bundle,
        )
        pairs = [((0, 0), (0, 1)), ((0, 0), (4, 4))]
        for s, t in pairs:
            service.query(s, t)
        routes = {r["route"] for r in flight.records()}
        assert "cross" in routes or "intra" in routes
        assert routes <= {"intra", "cross"}

    def test_batch_queries_offered(self):
        flight = FlightRecorder(threshold_seconds=1e-9)
        bundle = Telemetry().with_flight(flight)
        service = serve(
            _grid(), ServingConfig(eps=1.0), Rng(seed=7),
            telemetry=bundle,
        )
        service.query_batch([((0, 0), (1, 1)), ((2, 2), (3, 3))])
        assert flight.considered == 2
        batch_records = [
            r for r in flight.records() if r["route"] == "batch"
        ]
        assert batch_records
        assert batch_records[0]["span"]["name"] == "batch.serve"


class TestEventLogIntegration:
    def test_lifecycle_events_with_span_correlation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = ServingConfig(eps=1.0, event_log=str(path))
        service = serve(_grid(), config, Rng(seed=8))
        service.refresh(_grid())
        service.query_batch([((0, 0), (1, 1))])
        service.telemetry.log.close()
        records = read_event_log(path)
        events = [r["event"] for r in records]
        assert events[0] == "log.open"
        assert "service.start" in events
        assert "synopsis.build" in events
        assert "epoch.refresh" in events
        assert "batch.serve" in events
        build = next(r for r in records if r["event"] == "synopsis.build")
        assert build["tenant"] == "distance-service"
        assert build["span_id"] is not None
        refresh = next(
            r for r in records if r["event"] == "epoch.refresh"
        )
        assert refresh["epoch"] == 1

    def test_sharded_lifecycle_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = ServingConfig(eps=1.0, shards=2, event_log=str(path))
        service = serve(_grid(), config, Rng(seed=9))
        service.refresh(_grid())
        service.refresh_shard(0)
        service.telemetry.log.close()
        records = read_event_log(path)
        events = [r["event"] for r in records]
        assert "shard.refresh" in events
        # One start for the one front, carrying the plan's shard count.
        shard_counts = [
            r["fields"]["shards"]
            for r in records
            if r["event"] == "service.start"
        ]
        assert shard_counts == [2]
