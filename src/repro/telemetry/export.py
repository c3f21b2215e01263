"""Snapshot and Prometheus text exposition for telemetry documents.

The JSON snapshot (``{"format": "repro-telemetry", "version": 1,
"metrics": [...], "spans": [...]}``) is the interchange document: the
``serve``/``simulate`` CLIs write it, the ``metrics`` CLI reads it
back, and either side can render it as Prometheus text exposition.

Rendering is deterministic — metrics sorted by (name, labels), label
pairs sorted by key — so the exposition of a fixed registry is
golden-file stable.  Histograms render as Prometheus *summaries*
(quantile-labeled series plus ``_sum``/``_count``), the conventional
encoding for client-side quantiles.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Sequence

from .. import documents
from ..exceptions import TelemetryError

__all__ = [
    "BUDGET_GAUGES",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "budget_gauges",
    "snapshot_budgets",
    "snapshot_to_prometheus",
    "validate_snapshot",
]

SNAPSHOT_FORMAT = "repro-telemetry"
SNAPSHOT_VERSION = 1

#: The gauges that publish a tenant's budget position.
BUDGET_GAUGES = (
    "budget.eps.spent",
    "budget.eps.remaining",
    "budget.delta.remaining",
)


def budget_gauges(
    budget_eps: float,
    budget_delta: float,
    spent_eps: float,
    spent_delta: float,
) -> Dict[str, float]:
    """A tenant's :data:`BUDGET_GAUGES` after spending ``(spent_eps,
    spent_delta)`` of its epoch budget.

    The one place these figures are computed: the ledger publishes
    them and the audit verifiers compare against them, so a replay
    that sums the same spends in the same order agrees bit for bit.
    """
    remaining_eps = budget_eps - spent_eps
    return {
        "budget.eps.spent": budget_eps - remaining_eps,
        "budget.eps.remaining": remaining_eps,
        "budget.delta.remaining": budget_delta - spent_delta,
    }


def snapshot_budgets(
    metrics: Sequence[Mapping[str, object]]
) -> Dict[str, Dict[str, float]]:
    """Tenant -> its published :data:`BUDGET_GAUGES`, by name, from a
    snapshot's ``metrics`` entries (tenants sorted)."""
    budgets: Dict[str, Dict[str, float]] = {}
    for entry in metrics:
        tenant = entry.get("labels", {}).get("tenant")
        if (
            entry.get("kind") == "gauge"
            and entry.get("name") in BUDGET_GAUGES
            and tenant is not None
        ):
            budgets.setdefault(tenant, {})[entry["name"]] = entry["value"]
    return dict(sorted(budgets.items()))


_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

# Label names are stricter than metric names: the exposition format
# allows colons only in metric names, and a label name must not start
# with a digit.
_LABEL_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")

#: Prometheus metric kind per snapshot kind (histograms become
#: summaries: we export client-side quantiles, not server buckets).
_PROM_TYPE = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}

#: What every snapshot metric entry carries, and what each kind adds
#: (the fields the exporters and the ``metrics``/``report`` CLIs read).
_ENTRY_KEYS = {"name": str, "kind": str, "labels": dict}
_KIND_KEYS = {
    "counter": {"value": documents.NUMBER},
    "gauge": {"value": documents.NUMBER},
    "histogram": {"count": int, "sum": documents.NUMBER, "quantiles": dict},
}


def prometheus_name(name: str) -> str:
    """A snapshot metric name as a legal Prometheus metric name."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_label_name(name: str) -> str:
    """A snapshot label key as a legal Prometheus label name."""
    sanitized = _LABEL_NAME_SANITIZE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label(value: str) -> str:
    # Exposition-format escaping for quoted label values: backslash
    # first (so later escapes aren't double-escaped), then quote and
    # newline.
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _label_block(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{prometheus_label_name(k)}="{_escape_label(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def validate_snapshot(doc: object) -> Dict[str, object]:
    """Check a parsed snapshot document; returns it typed as a dict."""
    doc = documents.check(
        doc, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, TelemetryError,
        "telemetry snapshot", {"metrics": list},
    )
    for i, entry in enumerate(doc["metrics"]):
        what = f"telemetry snapshot metric #{i}"
        entry = documents.require(entry, TelemetryError, what, _ENTRY_KEYS)
        keys = _KIND_KEYS.get(entry["kind"])
        if keys is None:
            raise TelemetryError(
                f"unknown metric kind {entry['kind']!r} in snapshot"
            )
        documents.require(entry, TelemetryError, what, keys)
    return doc


def snapshot_to_prometheus(doc: Mapping[str, object]) -> str:
    """Render a snapshot document as Prometheus text exposition."""
    validate_snapshot(dict(doc))
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for entry in doc["metrics"]:  # type: ignore[index]
        name = prometheus_name(str(entry["name"]))
        kind = str(entry["kind"])
        prom_type = _PROM_TYPE[kind]
        labels = entry.get("labels", {})
        if name not in seen_types:
            seen_types[name] = prom_type
            lines.append(f"# TYPE {name} {prom_type}")
        elif seen_types[name] != prom_type:
            raise TelemetryError(
                f"metric {name!r} appears as both "
                f"{seen_types[name]} and {prom_type}"
            )
        if kind == "histogram":
            quantiles = entry.get("quantiles", {})
            for q_label, q_value in sorted(quantiles.items()):
                q = int(q_label.lstrip("p")) / 100.0
                block = _label_block(labels, f'quantile="{q}"')
                lines.append(f"{name}{block} {_format_value(q_value)}")
            block = _label_block(labels)
            lines.append(
                f"{name}_sum{block} {_format_value(entry.get('sum', 0.0))}"
            )
            lines.append(
                f"{name}_count{block} "
                f"{_format_value(entry.get('count', 0))}"
            )
        else:
            block = _label_block(labels)
            lines.append(
                f"{name}{block} {_format_value(entry.get('value', 0))}"
            )
    return "\n".join(lines) + "\n" if lines else ""
