"""Integration tests for the privacy audit trail against live serving
stacks: bit-exact replay verification for both service shapes,
fail-closed handling of damaged on-disk logs, and the observational
purity of auditing (seeded answers identical with it on, off, or
writing to disk)."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.dp.params import PrivacyParams
from repro.exceptions import AuditError, PrivacyError
from repro.graphs.generators import grid_graph
from repro.rng import Rng
from repro.serving.batching import fresh_batch
from repro.serving.ledger import BudgetLedger
from repro.serving.service import DistanceService
from repro.serving.sharding import ShardedDistanceService
from repro.telemetry import AuditLog, Telemetry, use_telemetry
from repro.telemetry.audit import (
    read_audit_log,
    verify_against_ledger,
    verify_audit_log,
)

GRAPH = grid_graph(5, 5)
PAIRS = [
    ((0, 0), (4, 4)),
    ((1, 1), (3, 2)),
    ((0, 3), (4, 0)),
    ((2, 2), (2, 2)),
]


def _audited_bundle(path=None) -> Telemetry:
    return Telemetry().with_audit(AuditLog(path))


class TestVerifyAgainstLiveLedger:
    def test_unsharded_bit_exact_across_rotations(self):
        telemetry = _audited_bundle()
        service = DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        service.query_batch(PAIRS)
        service.refresh()
        service.query((0, 0), (4, 4))
        service.refresh()
        summary = verify_against_ledger(
            telemetry.audit.records(), service.ledger, telemetry.registry
        )
        assert summary["verified"] is True
        assert summary["ledger_epoch"] == 2
        assert summary["verified_tenants"] == ["distance-service"]

    def test_sharded_bit_exact_across_refreshes(self):
        telemetry = _audited_bundle()
        service = ShardedDistanceService(
            GRAPH, 1.0, Rng(3), shards=2, telemetry=telemetry
        )
        service.query_batch(PAIRS)
        service.refresh()
        service.refresh_shard(0)
        summary = verify_against_ledger(
            telemetry.audit.records(), service.ledger, telemetry.registry
        )
        assert summary["verified"] is True
        # Regional shard tenants plus the boundary-hub relay all
        # spend, and every one of them is replayed and checked.
        tenants = summary["verified_tenants"]
        assert any(t.endswith("/relay") for t in tenants)
        assert any("/shard-" in t for t in tenants)

    def test_interleaved_tenants_on_shared_ledger(self):
        ledger = BudgetLedger(PrivacyParams(4.0))
        telemetry = _audited_bundle()
        with use_telemetry(telemetry):
            west = DistanceService(
                GRAPH, 0.5, Rng(0), ledger=ledger, tenant="west",
                telemetry=telemetry,
            )
            east = DistanceService(
                GRAPH, 0.75, Rng(1), ledger=ledger, tenant="east",
                telemetry=telemetry,
            )
            # Interleave spends within the epoch: shared-ledger
            # refreshes do not rotate, they spend more of epoch 0.
            west.refresh()
            east.refresh()
            west.refresh()
            # The owner turns the epoch; both tenants rebuild into it.
            ledger.rotate()
            east.refresh()
            west.refresh()
        summary = verify_against_ledger(
            telemetry.audit.records(), ledger, telemetry.registry
        )
        assert summary["verified"] is True
        assert summary["verified_tenants"] == ["east", "west"]
        # Bit-exact current-epoch sums, not approximate ones.
        odometer = summary["odometer"]
        assert odometer["tenants"]["west"]["spent_eps"] == (
            ledger.spent("west").eps
        )
        assert odometer["tenants"]["east"]["spent_eps"] == (
            ledger.spent("east").eps
        )
        assert odometer["tenants"]["west"]["lifetime_spends"] == 4
        assert odometer["tenants"]["east"]["lifetime_spends"] == 3

    def test_nudged_gauge_disagrees_with_replay(self):
        telemetry = _audited_bundle()
        service = DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        records = telemetry.audit.records()
        verify_against_ledger(records, service.ledger, telemetry.registry)
        gauge = telemetry.registry.gauge(
            "budget.eps.remaining", tenant="distance-service"
        )
        gauge.set(gauge.value + 1e-9)
        with pytest.raises(
            AuditError, match="disagrees with gauge 'budget.eps.remaining'"
        ):
            verify_against_ledger(records, service.ledger, telemetry.registry)
        # Without the registry only the ledger itself is compared.
        verify_against_ledger(records, service.ledger)

    def test_replay_disagrees_with_foreign_ledger(self):
        telemetry = _audited_bundle()
        DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        other = BudgetLedger(PrivacyParams(0.5))
        with pytest.raises(AuditError, match="active tenants"):
            verify_against_ledger(telemetry.audit.records(), other)


class TestOnDiskLogs:
    def test_service_log_round_trips_and_verifies(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        telemetry = _audited_bundle(path)
        service = DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        service.query_batch(PAIRS)
        service.refresh()
        telemetry.audit.close()
        records = read_audit_log(path)
        assert records == telemetry.audit.records()
        assert verify_audit_log(records)["verified"] is True
        verify_against_ledger(records, service.ledger, telemetry.registry)

    def test_corrupted_service_log_raises_audit_error(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        telemetry = _audited_bundle(path)
        DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        telemetry.audit.close()
        lines = path.read_text().splitlines()
        target = next(
            i for i, line in enumerate(lines) if "budget.spend" in line
        )
        lines[target] = lines[target].replace('"eps":0.5', '"eps":0.1')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError, match="hash chain broken"):
            read_audit_log(path)

    def test_truncated_service_log_raises_audit_error(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        telemetry = _audited_bundle(path)
        DistanceService(GRAPH, 0.5, Rng(0), telemetry=telemetry)
        telemetry.audit.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        with pytest.raises(AuditError):
            read_audit_log(path)


class TestObservationalPurity:
    """Auditing must never touch the Rng: answers are bit-identical
    with the audit trail off, in memory, or appending to disk."""

    def _answers(self, telemetry: Telemetry | None):
        service = DistanceService(GRAPH, 0.5, Rng(42), telemetry=telemetry)
        values = [service.query(*pair) for pair in PAIRS]
        estimates = [service.estimate(*pair) for pair in PAIRS]
        service.refresh()
        values += [service.query(*pair) for pair in PAIRS]
        return values, estimates

    def test_seeded_answers_identical_on_off_disk(self, tmp_path):
        baseline_values, baseline_estimates = self._answers(None)
        memory_values, memory_estimates = self._answers(_audited_bundle())
        disk_telemetry = _audited_bundle(tmp_path / "audit.jsonl")
        disk_values, disk_estimates = self._answers(disk_telemetry)
        assert memory_values == baseline_values
        assert disk_values == baseline_values
        for base, mem, disk in zip(
            baseline_estimates, memory_estimates, disk_estimates
        ):
            assert mem.value == base.value
            assert disk.value == base.value
            assert mem.noise_scale == base.noise_scale
            assert disk.noise_scale == base.noise_scale

    def test_sharded_seeded_answers_identical(self, tmp_path):
        def answers(telemetry):
            service = ShardedDistanceService(
                GRAPH, 1.0, Rng(9), shards=2, telemetry=telemetry
            )
            return [service.query(*pair) for pair in PAIRS]

        baseline = answers(None)
        assert answers(_audited_bundle()) == baseline
        assert answers(_audited_bundle(tmp_path / "a.jsonl")) == baseline


class TestBudgetTypes:
    """A budget is a number: a bool is refused before anything is
    recorded (``True == 1`` would otherwise spend a unit budget, and
    the audit log would hold ``"eps": true``, which its verifier
    refuses), and any other real number is a pure eps."""

    @staticmethod
    def _spends(telemetry: Telemetry):
        return [
            r for r in telemetry.audit.records() if r["kind"] == "budget.spend"
        ]

    def test_boolean_service_budget_refused(self):
        ledger = BudgetLedger(PrivacyParams(4.0))
        telemetry = _audited_bundle()
        with pytest.raises(PrivacyError):
            DistanceService(
                grid_graph(6, 6), True, Rng(0), mechanism="hub-set",
                ledger=ledger, telemetry=telemetry,
            )
        assert ledger.records() == []
        assert self._spends(telemetry) == []

    def test_boolean_fresh_batch_budget_refused(self):
        ledger = BudgetLedger(PrivacyParams(4.0))
        telemetry = _audited_bundle()
        with use_telemetry(telemetry), pytest.raises(PrivacyError):
            fresh_batch(
                grid_graph(6, 6), [((0, 0), (5, 5))], True, Rng(0),
                ledger=ledger,
            )
        assert ledger.records() == []
        assert self._spends(telemetry) == []

    def test_numpy_integer_budget_served_and_log_verifies(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        telemetry = _audited_bundle(path)
        service = DistanceService(
            grid_graph(6, 6), np.int64(3), Rng(0), mechanism="hub-set",
            telemetry=telemetry,
        )
        service.query((0, 0), (5, 5))
        service.refresh()
        telemetry.audit.close()
        assert service.epoch_budget == PrivacyParams(3.0)
        assert verify_audit_log(read_audit_log(path))["verified"] is True

    def test_real_budgets_record_alike(self):
        """An int, a float and numpy's of each are one pure budget:
        the same answers, ledger records and audit payloads."""

        def served(budget):
            telemetry = _audited_bundle()
            service = DistanceService(
                GRAPH, budget, Rng(5), telemetry=telemetry
            )
            answers = service.query_batch(PAIRS).answers
            payloads = [
                json.dumps([r["kind"], r["payload"]])
                for r in telemetry.audit.records()
            ]
            return answers, service.ledger.records(), payloads

        baseline = served(3.0)
        for budget in (3, np.int64(3), np.float64(3.0)):
            assert served(budget) == baseline

    @pytest.mark.parametrize(
        "eps", [np.int64(3), Fraction(1, 2)], ids=["numpy-int", "fraction"]
    )
    def test_params_budget_served_and_log_verifies(self, tmp_path, eps):
        # A numpy integer or a Fraction inside PrivacyParams used to
        # reach the audit log as a string, which the verifier refused.
        path = tmp_path / "audit.jsonl"
        telemetry = _audited_bundle(path)
        service = DistanceService(
            grid_graph(6, 6), PrivacyParams(eps), Rng(0),
            mechanism="hub-set", telemetry=telemetry,
        )
        service.query((0, 0), (5, 5))
        service.refresh()
        telemetry.audit.close()
        assert verify_audit_log(read_audit_log(path))["verified"] is True

    @pytest.mark.parametrize(
        "budget,same",
        [
            (PrivacyParams(3), PrivacyParams(np.int64(3))),
            (PrivacyParams(0.5), PrivacyParams(Fraction(1, 2))),
            (PrivacyParams(0.5, 1e-6), PrivacyParams(np.float32(0.5), 1e-6)),
        ],
        ids=["int", "float", "approx"],
    )
    def test_params_budgets_record_as_int_or_float(self, budget, same):
        """An int budget records ``3``, a float one ``0.5``, and a
        numpy or Fraction budget records what its int or float does."""

        def served(params):
            telemetry = _audited_bundle()
            service = DistanceService(
                GRAPH, params, Rng(5), mechanism="hub-set",
                telemetry=telemetry,
            )
            answers = service.query_batch(PAIRS).answers
            spends = [
                json.dumps(r["payload"], sort_keys=True)
                for r in self._spends(telemetry)
            ]
            return answers, service.ledger.records(), spends

        answers, records, spends = served(budget)
        assert served(same) == (answers, records, spends)
        assert f'"eps": {budget.eps!r}' in spends[0]
        assert type(records[0].params.eps) is type(budget.eps)
