"""Tests for the span tracer (:mod:`repro.telemetry.tracer`)."""

from __future__ import annotations

import pytest

from repro.telemetry import NullTracer, Tracer
from repro.telemetry.tracer import MAX_FINISHED_ROOTS, NULL_SPAN


class TestSpans:
    def test_nesting_parent_child(self):
        tracer = Tracer()
        with tracer.span("epoch.refresh") as parent:
            with tracer.span("synopsis.build") as child:
                assert tracer.current() is child
            assert tracer.current() is parent
        assert tracer.current() is None
        roots = tracer.finished_roots()
        assert [s.name for s in roots] == ["epoch.refresh"]
        assert [c.name for c in roots[0].children] == ["synopsis.build"]

    def test_attributes_at_open_and_set_attribute(self):
        tracer = Tracer()
        with tracer.span("build", mechanism="hub-set") as span:
            span.set_attribute("hubs", 12)
        (root,) = tracer.finished_roots()
        assert root.attributes == {"mechanism": "hub-set", "hubs": 12}

    def test_duration_measured(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (root,) = tracer.finished_roots()
        assert root.duration_seconds >= 0.0

    def test_events_are_zero_duration_children(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            tracer.event("budget.spend", tenant="west", eps=0.5)
        (root,) = tracer.finished_roots()
        (event,) = root.children
        assert event.name == "budget.spend"
        assert event.attributes == {"tenant": "west", "eps": 0.5}
        assert event.duration_seconds == 0.0

    def test_root_event_without_open_span(self):
        tracer = Tracer()
        tracer.event("standalone")
        assert [s.name for s in tracer.finished_roots()] == ["standalone"]

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current() is None
        (root,) = tracer.finished_roots()
        assert [c.name for c in root.children] == ["inner"]

    def test_to_dict_structure(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        (root,) = tracer.finished_roots()
        doc = root.to_dict()
        assert doc["name"] == "a"
        assert doc["attributes"] == {"k": "v"}
        assert doc["children"][0]["name"] == "b"
        assert doc["duration_seconds"] >= 0.0

    def test_finished_roots_bounded(self):
        tracer = Tracer()
        for i in range(MAX_FINISHED_ROOTS + 2):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.finished_roots()]
        assert names == [f"s{i}" for i in range(2, MAX_FINISHED_ROOTS + 2)]

    def test_evictions_counted_and_reported(self):
        dropped = []
        tracer = Tracer(on_drop=lambda: dropped.append(1))
        for i in range(MAX_FINISHED_ROOTS + 2):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 2
        assert len(dropped) == 2

    def test_no_drops_below_capacity(self):
        tracer = Tracer(on_drop=lambda: 1 / 0)
        for i in range(MAX_FINISHED_ROOTS):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 0  # callback never invoked

    def test_bundle_drop_counter_interned_lazily(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        names = {m["name"] for m in telemetry.registry.snapshot()}
        assert "trace.dropped" not in names  # nothing dropped yet
        for i in range(MAX_FINISHED_ROOTS + 2):
            with telemetry.span(f"s{i}"):
                pass
        counters = {
            m["name"]: m["value"]
            for m in telemetry.registry.snapshot()
            if m["kind"] == "counter"
        }
        assert counters["trace.dropped"] == 2

    def test_span_ids_and_current_ids(self):
        tracer = Tracer()
        assert tracer.current_ids() == (None, None)
        with tracer.span("root"):
            root_id, inner_id = tracer.current_ids()
            assert root_id == inner_id
            with tracer.span("inner"):
                trace_id, span_id = tracer.current_ids()
                assert trace_id == root_id
                assert span_id != trace_id
        assert tracer.current_ids() == (None, None)
        (root,) = tracer.finished_roots()
        assert root.to_dict()["span_id"] == root.span_id

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.finished_roots() == []
        assert tracer.snapshot() == []


class TestNullTracer:
    def test_noop_and_reentrant(self):
        tracer = NullTracer()
        with tracer.span("outer", k=1) as outer:
            with tracer.span("inner") as inner:
                assert outer is NULL_SPAN
                assert inner is NULL_SPAN
                inner.set_attribute("ignored", True)
        assert tracer.finished_roots() == []
        assert tracer.snapshot() == []
