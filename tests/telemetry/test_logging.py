"""Unit tests for the structured JSON-line event log
(:mod:`repro.telemetry.logging`)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import (
    EVENT_LOG_FORMAT,
    EVENT_LOG_VERSION,
    EventLog,
    NULL_LOG,
    Telemetry,
    read_event_log,
)


class TestEventLog:
    def test_header_is_first_record(self):
        log = EventLog()
        head = log.records()[0]
        assert head["event"] == "log.open"
        assert head["fields"] == {
            "format": EVENT_LOG_FORMAT,
            "version": EVENT_LOG_VERSION,
        }
        assert head["seq"] == 0

    def test_emit_schema_and_sequencing(self):
        log = EventLog()
        record = log.emit(
            "epoch.refresh", tenant="west", epoch=3, rotated=True
        )
        assert record["seq"] == 1
        assert record["tenant"] == "west"
        assert record["epoch"] == 3
        assert record["fields"] == {"rotated": True}
        assert record["trace_id"] is None  # no tracer bound
        assert len(log) == 2
        assert log.tail(1) == [record]
        assert log.tail(0) == []

    def test_non_json_field_values_stringified(self):
        log = EventLog()
        record = log.emit("x", pair=((0, 1), (2, 3)), obj=object())
        assert record["fields"]["pair"] == [[0, 1], [2, 3]]
        assert isinstance(record["fields"]["obj"], str)

    def test_span_ids_from_bound_tracer(self):
        # The bundle's own tracer supplies the ids; the log holds none.
        telemetry = Telemetry()
        bundle = telemetry.with_log(EventLog())
        with bundle.span("outer"):
            with bundle.span("inner") as span:
                bundle.emit("evt")
        record = bundle.log.records()[-1]
        assert record["event"] == "evt"
        assert record["span_id"] == span.span_id
        assert record["trace_id"] != record["span_id"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("service.start", tenant="t", shards=2)
            log.emit("batch.serve", queries=10)
        records = read_event_log(path)
        assert [r["event"] for r in records] == [
            "log.open",
            "service.start",
            "batch.serve",
        ]
        assert records == log.records()

    def test_read_fail_closed(self, tmp_path):
        path = tmp_path / "bad.jsonl"

        def write(lines):
            path.write_text("\n".join(lines) + "\n")

        header = json.dumps(
            {
                "seq": 0,
                "ts": 0.0,
                "event": "log.open",
                "tenant": None,
                "epoch": None,
                "trace_id": None,
                "span_id": None,
                "fields": {
                    "format": EVENT_LOG_FORMAT,
                    "version": EVENT_LOG_VERSION,
                },
            }
        )
        write([header, "{not json"])
        with pytest.raises(TelemetryError, match="malformed JSON"):
            read_event_log(path)
        write([header, '{"seq": 5}'])
        with pytest.raises(TelemetryError, match="missing keys"):
            read_event_log(path)
        gap = json.loads(header)
        gap["seq"] = 7
        gap["event"] = "x"
        write([header, json.dumps(gap)])
        with pytest.raises(TelemetryError, match="sequence gap"):
            read_event_log(path)
        path.write_text("")
        with pytest.raises(TelemetryError, match="empty log"):
            read_event_log(path)
        bad_head = json.loads(header)
        bad_head["fields"]["format"] = "other"
        write([json.dumps(bad_head)])
        with pytest.raises(TelemetryError, match="not an event log"):
            read_event_log(path)
        bad_version = json.loads(header)
        bad_version["fields"]["version"] = 99
        write([json.dumps(bad_version)])
        with pytest.raises(TelemetryError, match="version"):
            read_event_log(path)

    def test_boolean_seq_refused(self, tmp_path):
        # JSON true equals 1 in Python, but it is not sequence number 1.
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("service.start")
        lines = path.read_text().splitlines()
        assert '"seq":1' in lines[1]
        lines[1] = lines[1].replace('"seq":1', '"seq":true')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError, match="'seq' must be int, got bool"):
            read_event_log(path)

    def test_null_log_is_inert(self, tmp_path):
        assert not NULL_LOG.enabled
        assert NULL_LOG.emit("anything", tenant="t") == {}
        assert NULL_LOG.records() == []
        NULL_LOG.close()  # no-op, never raises

    def test_with_log_derivation_shares_instruments(self):
        telemetry = Telemetry()
        log = EventLog()
        derived = telemetry.with_log(log)
        assert derived.log is log
        assert telemetry.log is NULL_LOG
        assert derived.registry is telemetry.registry
