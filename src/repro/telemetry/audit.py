"""Append-only, tamper-evident audit trail for privacy spending.

A DP deployment's budget accounting (:class:`repro.serving.ledger.
BudgetLedger`) is in-process state: it vanishes on exit, and nothing
off-box can check that the advertised guarantee was respected.  The
audit log makes spending *durable and verifiable*:

* :class:`AuditLog` records structured events as JSON-line records
  with monotonic sequence numbers, the epoch and tenant they concern,
  the ``(trace_id, span_id)`` of the span they happened in, and a
  per-record SHA-256 hash chained to the previous record, so
  truncation, reordering, or edits are detectable.
  :meth:`Telemetry.emit <repro.telemetry.Telemetry.emit>` chains
  exactly the :data:`AUDITED_KINDS`: budget spends and ledger
  rotations, the synopsis and relay releases they paid for, and the
  epoch/shard refreshes that rebuilt them.  Answering from a release
  is post-processing and spends nothing, so batch serves (like
  mechanism selections, which read public facts only) go to the event
  log and the trace, not the chain.
* :func:`read_audit_log` replays a file fail-closed: any structural
  or chain defect raises :class:`~repro.exceptions.AuditError`.
* :func:`replay_odometer` reconstructs a *privacy odometer* from the
  records — per-tenant cumulative ``(eps, delta)`` in the current
  epoch, per-epoch history, and lifetime totals across rotations —
  summing spends in record order, which matches the accountant's own
  ``+=`` accumulation bit for bit.
* :func:`verify_audit_log` checks the log's internal accounting
  (each spend record's cumulative/remaining figures against the
  position that same replay reaches at the record), and
  :func:`verify_against_ledger` / :func:`verify_against_snapshot`
  check a replay against a *live* ledger and its gauges or a dumped
  snapshot — all bit-exact against
  :func:`~repro.telemetry.export.budget_gauges`, all fail-closed.

Record schema (one JSON object per line)::

    {"seq": 3, "ts": 1754500000.123, "kind": "budget.spend",
     "epoch": 0, "tenant": "west", "trace_id": 7, "span_id": 9,
     "payload": {...}, "hash": "<sha256 hex>"}

``hash`` is ``sha256(prev_hash + canonical_json(record_sans_hash))``
where the first record chains from :data:`GENESIS_HASH` and canonical
JSON is sorted-keys/compact-separators.  Record 0 has kind
``audit.open`` and carries the format marker and version in its
payload.  Like the rest of the telemetry layer, auditing never
touches an :class:`~repro.rng.Rng` — seeded answers are bit-identical
with auditing enabled, disabled, or logging to disk.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Mapping, Sequence, Tuple

from .. import documents
from ..exceptions import AuditError
from .export import budget_gauges, snapshot_budgets

__all__ = [
    "AUDITED_KINDS",
    "AUDIT_FORMAT",
    "AUDIT_VERSION",
    "GENESIS_HASH",
    "AuditLog",
    "NullAuditLog",
    "NULL_AUDIT",
    "read_audit_log",
    "replay_odometer",
    "validate_records",
    "verify_audit_log",
    "verify_against_ledger",
    "verify_against_snapshot",
]

AUDIT_FORMAT = "repro-audit"
AUDIT_VERSION = 1

_ODOMETER_FORMAT = "repro-audit-odometer"
_ODOMETER_VERSION = 1

#: The hash the first record chains from.
GENESIS_HASH = "0" * 64

#: The lifecycle events :meth:`Telemetry.emit
#: <repro.telemetry.Telemetry.emit>` hash-chains: the spends, the
#: rotations, and the releases they bought.
AUDITED_KINDS = frozenset(
    {
        "budget.spend",
        "ledger.rotate",
        "synopsis.build",
        "relay.build",
        "epoch.refresh",
        "shard.refresh",
    }
)

_REQUIRED_KEYS = {
    "seq": int, "ts": documents.NUMBER, "kind": str, "epoch": object,
    "tenant": object, "trace_id": object, "span_id": object,
    "payload": dict, "hash": str,
}

#: What a spend's payload must carry for the odometer to sum it.
_SPEND_KEYS = {"eps": documents.NUMBER, "delta": documents.NUMBER}


def _chain_hash(prev_hash: str, record: Mapping[str, object]) -> str:
    body = {k: v for k, v in record.items() if k != "hash"}
    return hashlib.sha256(
        (prev_hash + documents.canonical(body)).encode("utf-8")
    ).hexdigest()


class AuditLog(documents.Journal):
    """An append-only, hash-chained event log.

    With ``path=None`` the log is in-memory only (still chained, still
    verifiable); with a path, every record is appended to the JSONL
    file and flushed immediately.  Opening an existing non-empty file
    *resumes* it: the existing records are validated (fail-closed) and
    the chain continues from the last hash.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        existing: List[Dict[str, object]] = []
        if path is not None and os.path.exists(path) and (
            os.path.getsize(path) > 0
        ):
            existing = read_audit_log(path)
        super().__init__(path, existing)
        self._prev_hash = existing[-1]["hash"] if existing else GENESIS_HASH
        header = {"resumed": True} if existing else {}
        self.record(
            "audit.open",
            **documents.new(AUDIT_FORMAT, AUDIT_VERSION, **header),
        )

    @property
    def head_hash(self) -> str:
        """The hash of the most recent record."""
        return self._prev_hash

    def record(
        self,
        kind: str,
        *,
        epoch: int | None = None,
        tenant: str | None = None,
        trace_id: int | None = None,
        span_id: int | None = None,
        **payload: object,
    ) -> Dict[str, object]:
        """Append one event; returns the completed record."""
        rec: Dict[str, object] = {
            "seq": self._seq,
            "ts": time.time(),  # privlint: ignore[PL4] observational record timestamp
            "kind": kind,
            "epoch": epoch,
            "tenant": tenant,
            "trace_id": trace_id,
            "span_id": span_id,
            "payload": documents.json_safe(payload),
        }
        rec["hash"] = _chain_hash(self._prev_hash, rec)
        self._prev_hash = rec["hash"]
        return self._append(rec)


class NullAuditLog(AuditLog):
    """An audit log that records nothing (auditing disabled)."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 — no file, no chain
        documents.Journal.__init__(self)
        self._prev_hash = GENESIS_HASH

    def record(self, kind, *, epoch=None, tenant=None, **payload):
        return {}


#: The shared disabled audit log (the default on every bundle).
NULL_AUDIT = NullAuditLog()


def validate_records(
    records: Sequence[Mapping[str, object]]
) -> List[Dict[str, object]]:
    """Structural + chain validation of in-order records; fail-closed.

    Checks the header, monotonic sequence numbers, required keys, and
    the full hash chain; returns the records as plain dicts.
    """
    out = documents.check_journal(
        records, ("kind", "audit.open", "payload"), AUDIT_FORMAT,
        AUDIT_VERSION, AuditError, "audit log", _REQUIRED_KEYS,
    )
    prev_hash = GENESIS_HASH
    for i, rec in enumerate(out):
        if rec["hash"] != _chain_hash(prev_hash, rec):
            raise AuditError(
                f"audit log invalid (line {i + 1}): hash chain broken "
                f"at seq {i}: record was altered, reordered, or an "
                "earlier record is missing"
            )
        prev_hash = str(rec["hash"])
    return out


def read_audit_log(path: str | os.PathLike) -> List[Dict[str, object]]:
    """Parse and validate a JSONL audit log; fail-closed.

    Raises :class:`~repro.exceptions.AuditError` on malformed JSON
    (including a truncated final line), sequence gaps, a broken hash
    chain, or a missing/mismatched header.
    """
    return validate_records(
        documents.read_journal(path, AuditError, "audit log")
    )


def _fresh_tenant_state(epoch: object) -> Dict[str, object]:
    return {
        "epoch": epoch,
        "spent_eps": 0.0,
        "spent_delta": 0.0,
        "spends": 0,
        "budget_eps": None,
        "budget_delta": None,
        "lifetime_eps": 0.0,
        "lifetime_delta": 0.0,
        "lifetime_spends": 0,
        "by_epoch": {},
    }


#: A replayed spend: its record, and its tenant's cumulative
#: ``(eps, delta)`` for the epoch once the spend is counted.
_Spend = Tuple[Mapping[str, object], float, float]


def _replay(
    records: Sequence[Mapping[str, object]]
) -> Tuple[Dict[str, object], List[_Spend]]:
    """The one walk over the records: the odometer document, and every
    spend as the walk reached it."""
    tenants: Dict[str, Dict[str, object]] = {}
    epoch: int = 0
    spends: List[_Spend] = []
    for rec in records:
        kind = rec["kind"]
        payload = rec.get("payload", {})
        if kind == "budget.spend":
            documents.require(
                payload, AuditError, f"audit log spend at seq {rec['seq']}",
                _SPEND_KEYS,
            )
            tenant = str(rec["tenant"])
            rec_epoch = rec["epoch"]
            state = tenants.setdefault(
                tenant, _fresh_tenant_state(rec_epoch)
            )
            if state["epoch"] != rec_epoch:
                state["epoch"] = rec_epoch
                state["spent_eps"] = 0.0
                state["spent_delta"] = 0.0
                state["spends"] = 0
            state["spent_eps"] += payload["eps"]
            state["spent_delta"] += payload["delta"]
            state["spends"] += 1
            state["budget_eps"] = payload.get("budget_eps")
            state["budget_delta"] = payload.get("budget_delta")
            state["lifetime_eps"] += payload["eps"]
            state["lifetime_delta"] += payload["delta"]
            state["lifetime_spends"] += 1
            per = state["by_epoch"].setdefault(
                str(rec_epoch), {"eps": 0.0, "delta": 0.0, "spends": 0}
            )
            per["eps"] += payload["eps"]
            per["delta"] += payload["delta"]
            per["spends"] += 1
            spends.append((rec, state["spent_eps"], state["spent_delta"]))
            if isinstance(rec_epoch, int):
                epoch = max(epoch, rec_epoch)
        elif kind == "ledger.rotate":
            new_epoch = rec["epoch"]
            for tenant in payload.get("tenants", []):
                state = tenants.get(str(tenant))
                if state is None:
                    continue
                state["epoch"] = new_epoch
                state["spent_eps"] = 0.0
                state["spent_delta"] = 0.0
                state["spends"] = 0
                if payload.get("budget_eps") is not None:
                    state["budget_eps"] = payload["budget_eps"]
                    state["budget_delta"] = payload.get("budget_delta")
            if isinstance(new_epoch, int):
                epoch = max(epoch, new_epoch)
    odometer = documents.new(
        _ODOMETER_FORMAT,
        _ODOMETER_VERSION,
        epoch=epoch,
        spend_records=len(spends),
        tenants=tenants,
    )
    return odometer, spends


def replay_odometer(
    records: Sequence[Mapping[str, object]]
) -> Dict[str, object]:
    """Reconstruct per-tenant privacy spending from audit records.

    The odometer sums each spend's ``eps``/``delta`` in record order —
    the same left-to-right ``+=`` the live accountant performs — so the
    reconstructed current-epoch totals are bit-exact against the
    ledger.  ``ledger.rotate`` records (and a spend arriving with a
    new epoch) reset a tenant's current-epoch accumulation while the
    lifetime totals keep counting: the odometer only ever goes up.
    """
    return _replay(records)[0]


def verify_audit_log(
    records: Sequence[Mapping[str, object]]
) -> Dict[str, object]:
    """Check a log's internal accounting; fail-closed.

    Every ``budget.spend`` record carries the cumulative
    ``spent_eps``/``spent_delta`` and ``remaining_eps``/
    ``remaining_delta`` the live accountant reported at spend time;
    this demands each figure equal, bit for bit, the position the
    odometer's replay reaches at that record.  Returns a summary
    (record counts and the final odometer).
    """
    odometer, spends = _replay(records)
    for rec, spent_eps, spent_delta in spends:
        payload = rec["payload"]
        expected = {"spent_eps": spent_eps, "spent_delta": spent_delta}
        budget_eps = payload.get("budget_eps")
        budget_delta = payload.get("budget_delta")
        if budget_eps is not None and budget_delta is not None:
            position = budget_gauges(
                budget_eps, budget_delta, spent_eps, spent_delta
            )
            expected["remaining_eps"] = position["budget.eps.remaining"]
            expected["remaining_delta"] = position[
                "budget.delta.remaining"
            ]
        for field, value in expected.items():
            recorded = payload.get(field)
            if recorded != value:
                raise AuditError(
                    f"audit replay mismatch at seq {rec['seq']} "
                    f"(tenant {str(rec['tenant'])!r}, "
                    f"epoch {rec['epoch']}): "
                    f"recorded {field}={recorded!r} but replay "
                    f"reconstructs {value!r}"
                )
    return {
        "records": len(records),
        "spend_records": odometer["spend_records"],
        "tenants": sorted(odometer["tenants"]),
        "epoch": odometer["epoch"],
        "odometer": odometer,
        "verified": True,
    }


def _check_gauges(
    tenant: str,
    expected: Mapping[str, float],
    published: Mapping[str, float],
    source: str,
) -> int:
    """Compare a tenant's published budget gauges with the position
    the replay predicts; returns the number compared."""
    for name, value in sorted(published.items()):
        if value != expected[name]:
            raise AuditError(
                f"audit replay disagrees with {source} {name!r} for "
                f"tenant {tenant!r}: replayed {expected[name]!r} != "
                f"published {value!r}"
            )
    return len(published)


def verify_against_snapshot(
    records: Sequence[Mapping[str, object]],
    snapshot: Mapping[str, object],
) -> int:
    """Cross-check replayed budgets against a snapshot's gauges.

    The offline counterpart of :func:`verify_against_ledger` for the
    CLI, where the live ledger is gone but the run also wrote a
    ``--metrics-out`` telemetry snapshot: every ``budget.*`` gauge in
    the snapshot must equal the
    :func:`~repro.telemetry.export.budget_gauges` figure of the
    replayed position (a tenant whose epoch was rotated closed has
    spent 0, so it expects the full budget).  Returns the number of
    gauge comparisons made; raises
    :class:`~repro.exceptions.AuditError` on any mismatch, or on a
    gauge for a tenant the log never saw spend.
    """
    tenants = replay_odometer(records)["tenants"]
    checked = 0
    for tenant, values in snapshot_budgets(snapshot.get("metrics", [])).items():
        state = tenants.get(tenant)
        if state is None:
            raise AuditError(
                f"snapshot publishes budget gauges for tenant "
                f"{tenant!r} but the audit log never saw it spend"
            )
        expected = budget_gauges(
            state["budget_eps"], state["budget_delta"],
            state["spent_eps"], state["spent_delta"],
        )
        checked += _check_gauges(tenant, expected, values, "snapshot gauge")
    return checked


def verify_against_ledger(
    records: Sequence[Mapping[str, object]],
    ledger,
    registry=None,
) -> Dict[str, object]:
    """Check a replayed log against a live ledger; fail-closed.

    For every tenant active in the ledger's current epoch, the
    replayed cumulative ``(eps, delta)`` and the derived remaining
    budget must equal the ledger's figures *bit-exactly* (the replay
    repeats the accountant's own summation order and the ledger's own
    ``budget - spent`` expression, so equality is ``==``, not
    approximate).  With ``registry`` given, the published
    ``budget.*`` gauges are cross-checked against the replay too.
    Raises :class:`~repro.exceptions.AuditError` on any disagreement.
    """
    summary = verify_audit_log(records)
    odometer = summary["odometer"]
    tenants = odometer["tenants"]
    live = set(ledger.tenants)
    replayed_active = {
        tenant
        for tenant, state in tenants.items()
        if state["epoch"] == ledger.epoch and state["spends"] > 0
    }
    if live != replayed_active:
        raise AuditError(
            "audit replay disagrees with ledger on active tenants in "
            f"epoch {ledger.epoch}: ledger has {sorted(live)}, replay "
            f"reconstructs {sorted(replayed_active)}"
        )
    budget = ledger.epoch_budget
    published = (
        snapshot_budgets(registry.snapshot()) if registry is not None else {}
    )
    for tenant in sorted(live):
        state = tenants[tenant]
        if state["budget_eps"] != budget.eps or (
            state["budget_delta"] != budget.delta
        ):
            raise AuditError(
                f"audit replay disagrees with ledger on tenant "
                f"{tenant!r} epoch budget: log says "
                f"({state['budget_eps']!r}, {state['budget_delta']!r})"
                f", ledger says ({budget.eps!r}, {budget.delta!r})"
            )
        expected = budget_gauges(
            budget.eps, budget.delta, state["spent_eps"], state["spent_delta"]
        )
        spent = ledger.spent(tenant)
        replay_pairs = (
            ("spent eps", state["spent_eps"], spent.eps),
            ("spent delta", state["spent_delta"], spent.delta),
            (
                "remaining eps",
                expected["budget.eps.remaining"],
                ledger.remaining_eps(tenant),
            ),
            (
                "remaining delta",
                expected["budget.delta.remaining"],
                ledger.remaining_delta(tenant),
            ),
        )
        for what, replayed, live_value in replay_pairs:
            if replayed != live_value:
                raise AuditError(
                    f"audit replay disagrees with ledger for tenant "
                    f"{tenant!r} (epoch {ledger.epoch}): replayed "
                    f"{what} {replayed!r} != live {live_value!r}"
                )
        # A disabled registry publishes nothing, so nothing is compared.
        _check_gauges(tenant, expected, published.get(tenant, {}), "gauge")
    summary["ledger_epoch"] = ledger.epoch
    summary["verified_tenants"] = sorted(live)
    return summary
