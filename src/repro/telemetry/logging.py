"""JSON-line structured logs for serving lifecycle events.

The audit trail (:mod:`repro.telemetry.audit`) is deliberately narrow:
hash-chained, fail-closed, privacy-spending-only.  Operational
visibility needs the opposite trade — a cheap, greppable stream of
*every lifecycle event*: service start, mechanism selections, budget
spends, synopsis and relay builds, ledger rotations, epoch/shard
refreshes, batch serves.  :meth:`Telemetry.emit
<repro.telemetry.Telemetry.emit>` writes each one here, and the
audited subset to the chain too.  :class:`EventLog` writes one JSON
object per line with the same correlation fields as the audit schema
— ``tenant``, ``epoch``, and the ``(trace_id, span_id)`` of the span
the event happened in — so a slow span in a trace, a spend in the
audit log, and a lifecycle event in the event log can all be joined
on span ids.

Record schema (one JSON object per line)::

    {"seq": 4, "ts": 1754500000.123, "event": "epoch.refresh",
     "tenant": "west", "epoch": 3, "trace_id": 7, "span_id": 9,
     "fields": {...}}

There is no hash chain — this is a log, not a ledger; use the audit
trail when tampering matters.  :class:`NullEventLog`
(:data:`NULL_LOG`) mirrors :data:`~repro.telemetry.NULL_TELEMETRY`'s
null-object pattern so disabled call sites stay branch-free, and like
every other telemetry surface the event log never touches an
:class:`~repro.rng.Rng` — seeded answers are bit-identical with
logging on, off, or streaming to disk.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from .. import documents
from ..exceptions import TelemetryError

__all__ = [
    "EVENT_LOG_FORMAT",
    "EVENT_LOG_VERSION",
    "EventLog",
    "NullEventLog",
    "NULL_LOG",
    "read_event_log",
]

EVENT_LOG_FORMAT = "repro-events"
EVENT_LOG_VERSION = 1

_REQUIRED_KEYS = {
    "seq": int, "ts": documents.NUMBER, "event": str, "tenant": object,
    "epoch": object, "trace_id": object, "span_id": object, "fields": dict,
}


class EventLog(documents.Journal):
    """An append-only JSON-lines log of structured events.

    With ``path=None`` events accumulate in memory only; with a path,
    each record is appended to the JSONL file and flushed immediately
    (tail -f friendly).  The first record is always a ``log.open``
    header carrying the format marker and version.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        super().__init__(path)
        self.emit(
            "log.open", **documents.new(EVENT_LOG_FORMAT, EVENT_LOG_VERSION)
        )

    def emit(
        self,
        event: str,
        *,
        tenant: str | None = None,
        epoch: int | None = None,
        trace_id: int | None = None,
        span_id: int | None = None,
        **fields: object,
    ) -> Dict[str, object]:
        """Append one event; returns the completed record."""
        return self._append(
            {
                "seq": self._seq,
                "ts": time.time(),  # privlint: ignore[PL4] observational record timestamp
                "event": event,
                "tenant": tenant,
                "epoch": epoch,
                "trace_id": trace_id,
                "span_id": span_id,
                "fields": documents.json_safe(fields),
            }
        )


class NullEventLog(EventLog):
    """An event log that records nothing (logging disabled)."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 — no file, no header
        documents.Journal.__init__(self)

    def emit(self, event, *, tenant=None, epoch=None, **fields):
        return {}


#: The shared disabled event log (the default on every bundle).
NULL_LOG = NullEventLog()


def read_event_log(path: str | os.PathLike) -> List[Dict[str, object]]:
    """Parse an event-log JSONL file; fail-closed.

    Checks that every line is a JSON object with the schema's keys,
    that sequence numbers are gapless from 0, and that the first
    record is the ``log.open`` header with a readable version.
    Raises :class:`~repro.exceptions.TelemetryError` otherwise.
    """
    return documents.check_journal(
        documents.read_journal(path, TelemetryError, "event log"),
        ("event", "log.open", "fields"), EVENT_LOG_FORMAT,
        EVENT_LOG_VERSION, TelemetryError, "event log", _REQUIRED_KEYS,
    )
