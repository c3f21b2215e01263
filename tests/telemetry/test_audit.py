"""Unit tests for :mod:`repro.telemetry.audit` — the hash-chained,
fail-closed privacy audit log and its replay/verification surface."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import AuditError, ReproError, TelemetryError
from repro.telemetry import EventLog, Telemetry
from repro.telemetry.audit import (
    AUDITED_KINDS,
    AUDIT_FORMAT,
    AUDIT_VERSION,
    GENESIS_HASH,
    AuditLog,
    NULL_AUDIT,
    NullAuditLog,
    _chain_hash,
    read_audit_log,
    replay_odometer,
    validate_records,
    verify_against_snapshot,
    verify_audit_log,
)

#: Every kind a service emits: the audited ones, plus those that go to
#: the event log and the trace only.
_LIFECYCLE_KINDS = sorted(
    AUDITED_KINDS | {"batch.serve", "mechanism.select", "service.start"}
)


def _rechain(records: list) -> list:
    """Rebuild a record list's hash chain (simulates a *clever*
    tamperer who fixes the hashes after editing)."""
    prev = GENESIS_HASH
    out = []
    for rec in records:
        rec = dict(rec)
        rec["hash"] = _chain_hash(prev, rec)
        prev = rec["hash"]
        out.append(rec)
    return out


def _spend(
    log: AuditLog,
    tenant: str = "t",
    epoch: int = 0,
    eps: float = 0.25,
    spent_eps: float = 0.25,
    budget_eps: float = 1.0,
) -> None:
    log.record(
        "budget.spend",
        epoch=epoch,
        tenant=tenant,
        label="test spend",
        eps=eps,
        delta=0.0,
        spent_eps=spent_eps,
        spent_delta=0.0,
        remaining_eps=budget_eps - spent_eps,
        remaining_delta=0.0,
        budget_eps=budget_eps,
        budget_delta=0.0,
    )


class TestAuditLog:
    def test_header_record_first(self):
        log = AuditLog()
        records = log.records()
        assert len(records) == 1
        head = records[0]
        assert head["kind"] == "audit.open"
        assert head["seq"] == 0
        assert head["payload"] == {
            "format": AUDIT_FORMAT,
            "version": AUDIT_VERSION,
        }

    def test_chain_and_monotonic_seq(self):
        log = AuditLog()
        log.record("a", epoch=0, tenant="x", value=1)
        log.record("b", epoch=1, tenant="y", value=2)
        records = log.records()
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert validate_records(records) == records
        assert log.head_hash == records[-1]["hash"]
        assert log.seq == 3

    def test_payloads_coerced_json_safe(self):
        log = AuditLog()
        rec = log.record("k", pairs=[(0, 1)], vertex=(2, 3))
        assert rec["payload"] == {"pairs": [[0, 1]], "vertex": [2, 3]}
        # Canonical JSON round-trips the whole record losslessly.
        assert json.loads(json.dumps(rec)) == rec

    def test_tracer_correlation(self):
        telemetry = Telemetry().with_audit(AuditLog())
        telemetry.emit("epoch.refresh", epoch=0)
        with telemetry.span("root") as root:
            with telemetry.span("inner") as inner:
                telemetry.emit("epoch.refresh", epoch=1)
        outside, inside = telemetry.audit.records()[1:]
        assert (outside["trace_id"], outside["span_id"]) == (None, None)
        assert (inside["trace_id"], inside["span_id"]) == (
            root.span_id,
            inner.span_id,
        )
        assert inside["span_id"] != inside["trace_id"]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            _spend(log)
            log.record("epoch.refresh", epoch=0, tenant="t")
            written = log.records()
        assert read_audit_log(path) == written

    def test_resume_continues_chain(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            _spend(log)
            first_head = log.head_hash
        with AuditLog(path) as log:
            assert log.records()[2]["kind"] == "audit.open"
            assert log.records()[2]["payload"]["resumed"] is True
            _spend(log, epoch=1, spent_eps=0.25)
        records = read_audit_log(path)
        assert [r["seq"] for r in records] == list(range(4))
        assert records[1]["hash"] == first_head

    def test_tail(self):
        log = AuditLog()
        for i in range(5):
            log.record("k", value=i)
        assert [r["seq"] for r in log.tail(2)] == [4, 5]
        assert log.tail(0) == []

    def test_null_audit_records_nothing(self):
        assert NULL_AUDIT.enabled is False
        assert NULL_AUDIT.record("k", value=1) == {}
        assert len(NULL_AUDIT) == 0
        assert isinstance(NULL_AUDIT, NullAuditLog)

    def test_audit_error_is_repro_and_telemetry_error(self):
        assert issubclass(AuditError, TelemetryError)
        assert issubclass(AuditError, ReproError)


class TestEmit:
    def test_only_audited_kinds_are_chained(self):
        bundle = Telemetry().with_audit(AuditLog()).with_log(EventLog())
        # The spends, the rotations and the releases they paid for.
        audited = [
            "budget.spend",
            "epoch.refresh",
            "ledger.rotate",
            "relay.build",
            "shard.refresh",
            "synopsis.build",
        ]
        unaudited = ["batch.serve", "mechanism.select", "service.start"]
        kinds = sorted(audited + unaudited)
        for kind in kinds:
            bundle.emit(kind, tenant="t", epoch=0, value=1)
        chained = bundle.audit.records()[1:]
        logged = bundle.log.records()[1:]
        points = bundle.tracer.finished_roots()
        assert AUDITED_KINDS == set(audited)
        assert [r["kind"] for r in chained] == audited
        assert [r["event"] for r in logged] == kinds
        assert [span.name for span in points] == kinds
        assert all(r["payload"] == {"value": 1} for r in chained)
        assert all(r["fields"] == {"value": 1} for r in logged)
        assert all(
            span.attributes == {"tenant": "t", "epoch": 0, "value": 1}
            for span in points
        )

    def test_shared_journals_take_each_bundles_span_ids(self):
        # One audit trail and one event log aggregated over two
        # servers' bundles, each with its own tracer: a record carries
        # the ids of the bundle that emitted it, not those of
        # whichever bundle attached the journals last.
        audit, log = AuditLog(), EventLog()
        first = Telemetry().with_audit(audit).with_log(log)
        second = Telemetry().with_audit(audit).with_log(log)
        with first.span("epoch.refresh") as outer:
            with second.span("epoch.refresh") as root:
                with second.span("synopsis.build") as inner:
                    first.emit("epoch.refresh", tenant="a", epoch=1)
                    second.emit("synopsis.build", tenant="b", epoch=0)
        expected = [
            (outer.span_id, outer.span_id),
            (root.span_id, inner.span_id),
        ]
        for records in (audit.records(), log.records()):
            assert [
                (r["trace_id"], r["span_id"]) for r in records[1:]
            ] == expected

    @pytest.mark.parametrize("kind", _LIFECYCLE_KINDS)
    def test_sinks_join_on_the_enclosing_span(self, kind):
        # The journal records cite the innermost open span, and the
        # trace's point event is that span's child, so the sinks join
        # on span ids.
        bundle = Telemetry().with_audit(AuditLog()).with_log(EventLog())
        with bundle.span("root") as root:
            with bundle.span("inner") as inner:
                bundle.emit(kind, tenant="t", epoch=3, value=1)
        ids = (root.span_id, inner.span_id)
        (point,) = inner.children
        assert point.name == kind
        assert point.duration_seconds == 0.0
        assert point.attributes == {"tenant": "t", "epoch": 3, "value": 1}
        (logged,) = bundle.log.records()[1:]
        assert (logged["event"], logged["tenant"], logged["epoch"]) == (
            kind,
            "t",
            3,
        )
        assert (logged["trace_id"], logged["span_id"]) == ids
        chained = validate_records(bundle.audit.records())[1:]
        if kind in AUDITED_KINDS:
            (record,) = chained
            assert (record["kind"], record["tenant"], record["epoch"]) == (
                kind,
                "t",
                3,
            )
            assert (record["trace_id"], record["span_id"]) == ids
            assert record["payload"] == logged["fields"] == {"value": 1}
        else:
            assert chained == []

    def test_bundle_without_journals_only_traces(self):
        bundle = Telemetry()
        bundle.emit("budget.spend", tenant="t", epoch=0, eps=0.5)
        assert bundle.audit is NULL_AUDIT
        assert bundle.audit.records() == []
        assert bundle.log.records() == []
        (point,) = bundle.tracer.finished_roots()
        assert point.name == "budget.spend"
        assert point.attributes == {"tenant": "t", "epoch": 0, "eps": 0.5}

    def test_disabled_bundle_still_journals(self):
        # Auditing is independent of metrics and tracing: a disabled
        # bundle opens no spans, so its records carry no span ids, but
        # both journals still get their events.
        bundle = (
            Telemetry(enabled=False)
            .with_audit(AuditLog())
            .with_log(EventLog())
        )
        with bundle.span("epoch.refresh"):
            bundle.emit("epoch.refresh", tenant="t", epoch=1)
            bundle.emit("batch.serve", queries=2)
        chained = bundle.audit.records()[1:]
        logged = bundle.log.records()[1:]
        assert [r["kind"] for r in chained] == ["epoch.refresh"]
        assert [r["event"] for r in logged] == [
            "epoch.refresh",
            "batch.serve",
        ]
        assert all(
            (r["trace_id"], r["span_id"]) == (None, None)
            for r in chained + logged
        )
        assert bundle.tracer.finished_roots() == []


class TestValidation:
    def test_empty_log_rejected(self):
        with pytest.raises(AuditError, match="empty log"):
            validate_records([])

    def test_tampered_value_breaks_chain(self):
        log = AuditLog()
        _spend(log)
        records = log.records()
        records[1] = dict(records[1])
        records[1]["payload"] = dict(records[1]["payload"], eps=0.5)
        with pytest.raises(AuditError, match="hash chain broken"):
            validate_records(records)

    def test_reordered_records_break_chain(self):
        log = AuditLog()
        log.record("a")
        log.record("b")
        records = log.records()
        records[1], records[2] = records[2], records[1]
        with pytest.raises(AuditError):
            validate_records(records)

    def test_dropped_record_is_a_sequence_gap(self):
        log = AuditLog()
        log.record("a")
        log.record("b")
        records = log.records()
        del records[1]
        with pytest.raises(AuditError, match="sequence gap|hash chain"):
            validate_records(records)

    def test_missing_header_rejected_even_with_valid_chain(self):
        log = AuditLog()
        log.record("a")
        # A clever tamperer drops the header and re-chains everything.
        doctored = _rechain(
            [dict(r, seq=i) for i, r in enumerate(log.records()[1:])]
        )
        with pytest.raises(AuditError, match="audit.open"):
            validate_records(doctored)

    def test_foreign_format_and_version_rejected(self):
        log = AuditLog()
        records = log.records()
        wrong_format = [dict(records[0])]
        wrong_format[0]["payload"] = {"format": "other", "version": 1}
        with pytest.raises(AuditError, match="not an audit log"):
            validate_records(_rechain(wrong_format))
        wrong_version = [dict(records[0])]
        wrong_version[0]["payload"] = {
            "format": AUDIT_FORMAT,
            "version": AUDIT_VERSION + 1,
        }
        with pytest.raises(AuditError, match="version"):
            validate_records(_rechain(wrong_version))

    def test_truncated_file_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            _spend(log)
        text = path.read_text()
        path.write_text(text[:-20])
        with pytest.raises(AuditError, match=r"line 2.*truncated"):
            read_audit_log(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.record("a")
        with path.open("a") as fh:
            fh.write("not json\n")
        with pytest.raises(AuditError, match="malformed JSON"):
            read_audit_log(path)

    def test_resume_of_corrupt_file_fails_closed(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            _spend(log)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"eps":0.25', '"eps":0.75')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError):
            AuditLog(path)


class TestOdometer:
    def test_accumulates_per_tenant(self):
        log = AuditLog()
        _spend(log, tenant="a", spent_eps=0.25)
        _spend(log, tenant="a", spent_eps=0.5)
        _spend(log, tenant="b", spent_eps=0.25)
        odometer = replay_odometer(log.records())
        assert odometer["spend_records"] == 3
        assert odometer["tenants"]["a"]["spent_eps"] == 0.5
        assert odometer["tenants"]["a"]["spends"] == 2
        assert odometer["tenants"]["b"]["spent_eps"] == 0.25

    def test_rotation_resets_epoch_but_not_lifetime(self):
        log = AuditLog()
        _spend(log, tenant="a", epoch=0)
        log.record(
            "ledger.rotate",
            epoch=1,
            closed_epoch=0,
            tenants=["a"],
            budget_eps=1.0,
            budget_delta=0.0,
        )
        _spend(log, tenant="a", epoch=1)
        odometer = replay_odometer(log.records())
        state = odometer["tenants"]["a"]
        assert state["epoch"] == 1
        assert state["spent_eps"] == 0.25
        assert state["lifetime_eps"] == 0.5
        assert state["lifetime_spends"] == 2
        assert state["by_epoch"] == {
            "0": {"eps": 0.25, "delta": 0.0, "spends": 1},
            "1": {"eps": 0.25, "delta": 0.0, "spends": 1},
        }

    def test_verify_passes_consistent_log(self):
        log = AuditLog()
        _spend(log, spent_eps=0.25)
        _spend(log, spent_eps=0.5)
        summary = verify_audit_log(log.records())
        assert summary["verified"] is True
        assert summary["spend_records"] == 2

    def test_log_with_serve_and_select_records_still_replays(
        self, tmp_path
    ):
        # Older logs also chain batch serves and mechanism selections.
        # They still read and verify, and those records do not move
        # the odometer.
        select = {"winner": "hub-set", "candidates": ["hub-set"]}
        serve = {"queries": 4, "unique": 3, "labels": {"service": "x"}}

        def write(log, chain_unaudited):
            def unaudited(kind, payload):
                if chain_unaudited:
                    log.record(kind, **payload)

            unaudited("mechanism.select", select)
            _spend(log, tenant="a")
            log.record(
                "synopsis.build", epoch=0, tenant="a", mechanism="hub-set"
            )
            unaudited("batch.serve", serve)
            log.record(
                "ledger.rotate",
                epoch=1,
                closed_epoch=0,
                tenants=["a"],
                budget_eps=1.0,
                budget_delta=0.0,
            )
            unaudited("mechanism.select", select)
            _spend(log, tenant="a", epoch=1, eps=0.5, spent_eps=0.5)
            unaudited("batch.serve", serve)

        path = tmp_path / "old.jsonl"
        with AuditLog(path) as old:
            write(old, chain_unaudited=True)
        current = AuditLog()
        write(current, chain_unaudited=False)
        records = read_audit_log(path)
        kinds = {r["kind"] for r in records}
        assert {"batch.serve", "mechanism.select"} <= kinds
        assert verify_audit_log(records)["spend_records"] == 2
        assert replay_odometer(records) == replay_odometer(
            current.records()
        )

    def test_verify_catches_rechained_arithmetic_lie(self):
        # The chain is intact (the tamperer fixed every hash) but the
        # recorded cumulative figure no longer matches the replay.
        log = AuditLog()
        _spend(log, spent_eps=0.25)
        records = [dict(r) for r in log.records()]
        records[1]["payload"] = dict(
            records[1]["payload"], spent_eps=0.125
        )
        doctored = _rechain(records)
        validate_records(doctored)  # chain itself is fine
        with pytest.raises(AuditError, match="replay mismatch"):
            verify_audit_log(doctored)


    def test_verify_catches_rechained_remaining_lie(self):
        log = AuditLog()
        _spend(log, spent_eps=0.25)
        records = [dict(r) for r in log.records()]
        records[1]["payload"] = dict(
            records[1]["payload"], remaining_eps=0.8
        )
        with pytest.raises(AuditError, match="recorded remaining_eps=0.8"):
            verify_audit_log(_rechain(records))


    @pytest.mark.parametrize("eps", [None, "0.25", True])
    def test_spend_without_a_numeric_eps_refused(self, eps):
        # A chained record the odometer cannot sum fails closed.
        log = AuditLog()
        _spend(log)
        records = [dict(r) for r in log.records()]
        payload = dict(records[1]["payload"], eps=eps)
        if eps is None:
            del payload["eps"]
        records[1]["payload"] = payload
        doctored = _rechain(records)
        for read in (replay_odometer, verify_audit_log):
            with pytest.raises(AuditError, match="spend at seq 1"):
                read(doctored)


class TestSnapshotVerify:
    def _snapshot(self, spent=0.25, remaining=0.75, tenant="t"):
        return {
            "metrics": [
                {
                    "kind": "gauge",
                    "name": "budget.eps.spent",
                    "labels": {"tenant": tenant},
                    "value": spent,
                },
                {
                    "kind": "gauge",
                    "name": "budget.eps.remaining",
                    "labels": {"tenant": tenant},
                    "value": remaining,
                },
            ]
        }

    def test_matching_gauges_pass(self):
        log = AuditLog()
        _spend(log)
        assert verify_against_snapshot(log.records(), self._snapshot()) == 2

    def test_mismatched_gauge_fails(self):
        log = AuditLog()
        _spend(log)
        with pytest.raises(AuditError, match="disagrees with snapshot"):
            verify_against_snapshot(
                log.records(), self._snapshot(spent=0.5, remaining=0.5)
            )

    def test_unknown_gauge_tenant_fails(self):
        log = AuditLog()
        _spend(log, tenant="a")
        with pytest.raises(AuditError, match="never saw it spend"):
            verify_against_snapshot(
                log.records(), self._snapshot(tenant="ghost")
            )

    def test_rotated_tenant_expects_full_budget(self):
        log = AuditLog()
        _spend(log, tenant="t", epoch=0)
        log.record(
            "ledger.rotate",
            epoch=1,
            closed_epoch=0,
            tenants=["t"],
            budget_eps=1.0,
            budget_delta=0.0,
        )
        snapshot = self._snapshot(spent=0.0, remaining=1.0)
        assert verify_against_snapshot(log.records(), snapshot) == 2
