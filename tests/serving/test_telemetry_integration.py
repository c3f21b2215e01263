"""Telemetry integration across the serving stack: observational
purity (bit-identical answers on/off), the ServiceStats compatibility
view, budget gauges, spans, and the replay's latency quantiles."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    NULL_TELEMETRY,
    Rng,
    ServingConfig,
    Telemetry,
    replay_rush_hour,
    serve,
    set_default_telemetry,
    use_telemetry,
)
from repro.graphs import generators
from repro.serving.service import ServiceStats
from repro.telemetry import (
    AUDITED_KINDS,
    AuditLog,
    EventLog,
    Span,
    verify_against_ledger,
)


def _grid(rows=5, cols=5):
    return generators.grid_graph(rows, cols)


def _point_event_spans(tracer) -> list:
    """The zero-duration point events in the tracer's finished span
    trees, in the order they were emitted."""
    found = []
    spans = list(reversed(tracer.finished_roots()))
    while spans:
        span = spans.pop()
        spans.extend(reversed(span.children))
        if span.duration_seconds == 0.0 and not span.children:
            found.append(span)
    return found


def _point_events(tracer) -> Counter:
    """How often each name occurs as a zero-duration point event in
    the tracer's finished span trees."""
    return Counter(span.name for span in _point_event_spans(tracer))


#: The fields each lifecycle kind carries, the same in every sink that
#: gets it.
_KIND_FIELDS = {
    "service.start": {"mechanism", "shards"},
    "mechanism.select": {"winner", "candidates"},
    "budget.spend": {
        "label",
        "eps",
        "delta",
        "spent_eps",
        "spent_delta",
        "remaining_eps",
        "remaining_delta",
        "budget_eps",
        "budget_delta",
    },
    "synopsis.build": {"mechanism", "forced"},
    "relay.build": {"sites"},
    "batch.serve": {"queries", "unique", "cache_hits", "labels"},
    "ledger.rotate": {
        "closed_epoch", "tenants", "budget_eps", "budget_delta"
    },
    "epoch.refresh": {"mechanism", "shards", "rotated"},
    "shard.refresh": {"shard"},
}


@pytest.fixture(scope="module")
def lifecycle() -> Telemetry:
    """The bundle of a 4-shard, auto-selecting server that started,
    served a batch, refreshed, and refreshed shard 0."""
    telemetry = Telemetry().with_audit(AuditLog()).with_log(EventLog())
    config = ServingConfig(eps=1.0, shards=4, mechanism="auto")
    service = serve(_grid(12, 12), config, Rng(seed=11), telemetry=telemetry)
    service.query_batch([((0, 0), (11, 11)), ((3, 4), (8, 2))])
    service.refresh()
    service.refresh_shard(0)
    return telemetry


def _answers(telemetry, shards=1):
    """All visible outputs of a fixed seeded serving session."""
    config = ServingConfig(eps=1.0, shards=shards)
    service = serve(_grid(), config, Rng(seed=42), telemetry=telemetry)
    pairs = [((0, 0), (4, 4)), ((1, 2), (3, 0)), ((0, 0), (4, 4))]
    point = service.query((0, 1), (4, 3))
    batch = service.query_batch(pairs)
    estimate = service.estimate((2, 2), (0, 4))
    return (point, tuple(batch.answers), estimate.value, estimate.noise_scale)


class TestObservationalPurity:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bit_identical_on_off_and_custom(self, shards):
        # Telemetry must never touch the noise stream: the default
        # bundle, the null bundle, and an injected private bundle all
        # produce byte-for-byte identical released values.
        baseline = _answers(None, shards=shards)
        assert _answers(NULL_TELEMETRY, shards=shards) == baseline
        assert _answers(Telemetry(), shards=shards) == baseline

    @pytest.mark.parametrize("shards", [1, 2])
    def test_config_disabled_also_identical(self, shards):
        baseline = _answers(None, shards=shards)
        config = ServingConfig(eps=1.0, shards=shards)
        service = serve(
            _grid(), config, Rng(seed=42), telemetry=NULL_TELEMETRY
        )
        assert not service.telemetry.enabled
        pairs = [((0, 0), (4, 4)), ((1, 2), (3, 0)), ((0, 0), (4, 4))]
        point = service.query((0, 1), (4, 3))
        batch = service.query_batch(pairs)
        estimate = service.estimate((2, 2), (0, 4))
        assert (
            point,
            tuple(batch.answers),
            estimate.value,
            estimate.noise_scale,
        ) == baseline


class TestServiceStatsView:
    def test_as_dict_byte_identical_shape(self):
        # Regression pin: the compatibility view must keep the exact
        # historical key set and order of ServiceStats.as_dict().
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0)
        service = serve(_grid(), config, Rng(seed=1), telemetry=telemetry)
        service.query((0, 0), (1, 1))
        service.query((0, 0), (1, 1))  # cache hit
        # One fresh unique pair: the in-batch duplicate is deduplicated,
        # which is neither a cache hit nor a miss.
        service.query_batch([((0, 0), (2, 2)), ((0, 0), (2, 2))])
        stats = service.stats.as_dict()
        assert stats == {
            "num_queries": 4,
            "point_queries": 2,
            "batch_queries": 2,
            "batches": 1,
            "cache_hits": 1,
            "epochs_built": 1,
            "shard_refreshes": 0,
        }
        assert list(stats) == [
            "num_queries",
            "point_queries",
            "batch_queries",
            "batches",
            "cache_hits",
            "epochs_built",
            "shard_refreshes",
        ]

    def test_counters_live_in_registry_not_parallel_books(self):
        telemetry = Telemetry()
        stats = ServiceStats(telemetry=telemetry, tenant="t")
        stats.record_point_query(cache_hit=True)
        by_name = {
            m.name: m.value
            for m in telemetry.registry.metrics()
            if m.kind == "counter"
        }
        assert by_name["serving.stats.point_queries"] == 1
        assert by_name["serving.stats.cache_hits"] == 1
        assert stats.point_queries == 1
        assert stats.cache_hits == 1

    def test_detached_stats_still_count_without_telemetry(self):
        stats = ServiceStats(telemetry=NULL_TELEMETRY)
        stats.record_point_query(cache_hit=False)
        stats.record_epoch_built()
        assert stats.num_queries == 1
        assert stats.epochs_built == 1

    def test_two_services_do_not_collide(self):
        # instance labels keep per-service counters separate even for
        # equal tenant names in the same registry.
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0)
        a = serve(_grid(), config, Rng(seed=1), telemetry=telemetry)
        b = serve(_grid(), config, Rng(seed=2), telemetry=telemetry)
        a.query((0, 0), (1, 1))
        assert a.stats.num_queries == 1
        assert b.stats.num_queries == 0


class TestMetricsAndSpans:
    def test_query_latency_and_build_metrics_recorded(self):
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0)
        service = serve(_grid(), config, Rng(seed=3), telemetry=telemetry)
        service.query((0, 0), (4, 4))
        service.query_batch([((0, 0), (1, 1)), ((2, 2), (3, 3))])
        latency = telemetry.registry.merged_histogram(
            "serving.query.latency"
        )
        assert latency.count == 3
        build = telemetry.registry.merged_histogram("build.latency")
        assert build.count == 1
        names = {m.name for m in telemetry.registry.metrics()}
        assert "serving.batch.latency" in names
        assert "mechanism.selected" in names

    def test_build_latency_observed_once_per_build(self):
        # Two shard synopses and one relay: three builds, three
        # observations, each under its caller's phase and mechanism.
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0, shards=2, mechanism="hub-set")
        serve(
            _grid(12, 12), config, Rng(seed=5), telemetry=telemetry
        )
        counts = {}
        for metric in telemetry.registry.metrics():
            if metric.name == "build.latency":
                labels = dict(metric.labels)
                counts[labels["phase"], labels["mechanism"]] = metric.count
        assert counts == {
            ("synopsis", "hub-set"): 2,
            ("relay", "boundary-relay"): 1,
        }

    def test_one_lifecycle_record_per_server_event(self):
        # Tenants hold no serving state: a 4-shard server starts,
        # refreshes and registers counters once, as one server, while
        # every build and spend is still recorded per tenant.  Every
        # event reaches the event log and the trace once each; only
        # the spends, rotations and releases reach the hash chain.
        log = EventLog()
        telemetry = Telemetry().with_audit(AuditLog()).with_log(log)
        config = ServingConfig(eps=1.0, shards=4, mechanism="auto")
        service = serve(
            _grid(12, 12), config, Rng(seed=11), telemetry=telemetry
        )
        service.query_batch([((0, 0), (11, 11)), ((3, 4), (8, 2))])
        service.refresh()
        service.refresh_shard(0)
        audit = Counter(r["kind"] for r in telemetry.audit.records())
        events = Counter(r["event"] for r in log.records())
        assert events.pop("log.open") == 1
        assert events == _point_events(telemetry.tracer)
        assert events["service.start"] == events["batch.serve"] == 1
        assert events["mechanism.select"] == 9
        assert audit.pop("audit.open") == 1
        assert set(audit) == AUDITED_KINDS
        unaudited = {"batch.serve", "mechanism.select", "service.start"}
        assert not unaudited & set(audit)
        assert all(audit[kind] == events[kind] for kind in audit)
        assert audit["epoch.refresh"] == 1
        assert audit["shard.refresh"] == 1
        assert audit["synopsis.build"] == 9
        assert audit["relay.build"] == 3
        assert audit["budget.spend"] == 12
        assert audit["ledger.rotate"] == 1
        verify_against_ledger(
            telemetry.audit.records(), service.ledger, telemetry.registry
        )
        stats = [
            m
            for m in telemetry.registry.metrics()
            if m.name.startswith("serving.stats.")
        ]
        assert len(stats) == len(ServiceStats._FIELDS) + 1
        assert {dict(m.labels)["tenant"] for m in stats} == {
            "sharded-distance-service"
        }
        services = {
            dict(m.labels)["service"]
            for m in telemetry.registry.metrics()
            if m.name in ("serving.query.latency", "serving.batch.latency")
        }
        assert services == {"sharded"}

    def test_budget_gauges_per_tenant(self):
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0, delta=1e-6)
        service = serve(_grid(), config, Rng(seed=4), telemetry=telemetry)
        gauges = {
            (m.name, dict(m.labels)["tenant"]): m.value
            for m in telemetry.registry.metrics()
            if m.name.startswith("budget.") and m.kind == "gauge"
        }
        tenant = service.ledger.records()[0].tenant
        assert gauges[("budget.eps.spent", tenant)] == pytest.approx(1.0)
        assert gauges[("budget.eps.remaining", tenant)] == pytest.approx(
            0.0
        )
        assert gauges[
            ("budget.delta.remaining", tenant)
        ] == pytest.approx(0.0, abs=1e-12)

    def test_sharded_budget_gauges_cover_all_tenants(self):
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0, shards=2)
        service = serve(_grid(), config, Rng(seed=5), telemetry=telemetry)
        tenants = {
            dict(m.labels)["tenant"]
            for m in telemetry.registry.metrics()
            if m.name == "budget.eps.spent"
        }
        ledger_tenants = {e.tenant for e in service.ledger.records()}
        assert tenants == ledger_tenants
        assert len(tenants) >= 3  # two shards + the boundary relay

    def test_epoch_refresh_span_nests_build(self):
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0)
        service = serve(_grid(), config, Rng(seed=6), telemetry=telemetry)
        telemetry.tracer.clear()
        service.refresh(_grid())
        roots = telemetry.tracer.finished_roots()
        assert [s.name for s in roots] == ["epoch.refresh"]
        child_names = {c.name for c in roots[0].children}
        assert "synopsis.build" in child_names

    def test_budget_spend_events_traced(self):
        telemetry = Telemetry()
        config = ServingConfig(eps=1.0)
        serve(_grid(), config, Rng(seed=7), telemetry=telemetry)
        spends = [
            span
            for root in telemetry.tracer.finished_roots()
            for span in [root, *root.children]
            if span.name == "budget.spend"
        ]
        assert len(spends) == 1
        assert spends[0].attributes["eps"] == pytest.approx(1.0)

    def test_default_bundle_capture(self):
        # serve(telemetry=None) records into the active process
        # bundle, honoring use_telemetry scopes.
        scoped = Telemetry()
        with use_telemetry(scoped):
            service = serve(_grid(), ServingConfig(eps=1.0), Rng(seed=8))
            service.query((0, 0), (1, 1))
        assert (
            scoped.registry.merged_histogram(
                "serving.query.latency"
            ).count
            == 1
        )

    def test_set_default_telemetry_round_trip(self):
        mine = Telemetry()
        previous = set_default_telemetry(mine)
        try:
            service = serve(_grid(), ServingConfig(eps=1.0), Rng(seed=9))
            service.query((0, 0), (1, 1))
            assert (
                mine.registry.merged_histogram(
                    "serving.query.latency"
                ).count
                == 1
            )
        finally:
            set_default_telemetry(previous)


class TestOneFieldSetPerKind:
    @pytest.mark.parametrize("kind", sorted(_KIND_FIELDS))
    def test_every_sink_carries_the_same_fields(self, lifecycle, kind):
        logged = [r for r in lifecycle.log.records() if r["event"] == kind]
        points = [
            span
            for span in _point_event_spans(lifecycle.tracer)
            if span.name == kind
        ]
        chained = [
            r for r in lifecycle.audit.records() if r["kind"] == kind
        ]
        assert logged
        assert all(set(r["fields"]) == _KIND_FIELDS[kind] for r in logged)
        # The trace gets each event once, with the same tenant, epoch
        # and fields (as span attributes hold them), in the same order.
        assert [
            Span(
                kind,
                {"tenant": r["tenant"], "epoch": r["epoch"], **r["fields"]},
            ).attributes
            for r in logged
        ] == [span.attributes for span in points]
        if kind in AUDITED_KINDS:
            assert [
                (r["tenant"], r["epoch"], r["payload"]) for r in chained
            ] == [(r["tenant"], r["epoch"], r["fields"]) for r in logged]
        else:
            assert chained == []


class TestReplayLatency:
    def test_simulate_reports_latency_quantiles(self, rng):
        report = replay_rush_hour(
            rng, rows=5, cols=5, epochs=1, queries_per_epoch=40
        )
        assert report.latency["count"] == 40
        assert (
            0.0
            <= report.latency["p50"]
            <= report.latency["p95"]
            <= report.latency["p99"]
        )
        assert report.as_dict()["latency_seconds"] == report.latency

    def test_disabled_config_reports_no_latency(self, rng):
        report = replay_rush_hour(
            rng, ServingConfig(eps=1.0), epochs=1, queries_per_epoch=20,
            rows=5, cols=5, telemetry=NULL_TELEMETRY,
        )
        assert report.latency == {}

    def test_private_bundle_per_replay(self, rng):
        # Two replays must not leak latency observations into each
        # other through a shared global registry.
        first = replay_rush_hour(
            rng, rows=5, cols=5, epochs=1, queries_per_epoch=10
        )
        second = replay_rush_hour(
            rng, rows=5, cols=5, epochs=1, queries_per_epoch=25
        )
        assert first.latency["count"] == 10
        assert second.latency["count"] == 25
