"""Alert rules over telemetry snapshots.

Declarative alert rules close the loop between *recording*
observability data (the metrics registry and the audit trail) and
*acting* on it.  They are JSON documents (format ``repro-alert-rules`` v1)
evaluated against a standard telemetry snapshot.  A ``threshold``
rule compares one field of matching metric entries (a counter/gauge
``value``, or a histogram's ``count``/``sum``/``p50``/``p95``/``p99``)
against a bound; a ``burn-rate`` rule fires when a tenant's spent
fraction of its epoch budget — reconstructed from the
``budget.eps.spent`` / ``budget.eps.remaining`` gauges — crosses a
threshold, the "this epoch will run out of privacy budget" pager.

Like all telemetry, evaluation is read-only over snapshots and never
touches an :class:`~repro.rng.Rng`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .. import documents
from ..exceptions import TelemetryError
from .export import snapshot_budgets, validate_snapshot

__all__ = [
    "ALERT_RULES_FORMAT",
    "ALERT_RULES_VERSION",
    "Alert",
    "AlertRule",
    "evaluate_rules",
    "load_alert_rules",
]

ALERT_RULES_FORMAT = "repro-alert-rules"
ALERT_RULES_VERSION = 1

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}

_RULE_KINDS = ("threshold", "burn-rate")
_FIELDS = ("value", "count", "sum", "min", "max", "p50", "p95", "p99")
_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert condition."""

    name: str
    kind: str = "threshold"
    metric: str = ""
    field: str = "value"
    op: str = ">"
    value: float = 0.0
    labels: Mapping[str, str] = None  # type: ignore[assignment]
    severity: str = "warning"

    def __post_init__(self) -> None:
        if not self.name:
            raise TelemetryError("alert rule needs a non-empty name")
        if self.kind not in _RULE_KINDS:
            raise TelemetryError(
                f"alert rule {self.name!r}: unknown kind "
                f"{self.kind!r} (expected one of "
                f"{', '.join(_RULE_KINDS)})"
            )
        if self.kind == "threshold" and not self.metric:
            raise TelemetryError(
                f"alert rule {self.name!r}: threshold rules need a "
                "metric name"
            )
        if self.field not in _FIELDS:
            raise TelemetryError(
                f"alert rule {self.name!r}: unknown field "
                f"{self.field!r} (expected one of {', '.join(_FIELDS)})"
            )
        if self.op not in _OPS:
            raise TelemetryError(
                f"alert rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {', '.join(sorted(_OPS))})"
            )
        if self.severity not in _SEVERITIES:
            raise TelemetryError(
                f"alert rule {self.name!r}: unknown severity "
                f"{self.severity!r} (expected one of "
                f"{', '.join(_SEVERITIES)})"
            )
        if self.labels is None:
            object.__setattr__(self, "labels", {})


@dataclass(frozen=True)
class Alert:
    """One fired alert."""

    rule: str
    severity: str
    metric: str
    labels: Mapping[str, str]
    observed: float
    threshold: float
    message: str

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe rendering (the ``report`` CLI's rows)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "metric": self.metric,
            "labels": dict(self.labels),
            "observed": self.observed,
            "threshold": self.threshold,
            "message": self.message,
        }


def load_alert_rules(text: str) -> List[AlertRule]:
    """Parse a ``repro-alert-rules`` JSON document; fail-closed."""
    doc = documents.parse(
        text, ALERT_RULES_FORMAT, ALERT_RULES_VERSION, TelemetryError,
        "alert-rules document", {"rules": list},
    )
    return [
        documents.construct(AlertRule, raw, TelemetryError, f"alert rule #{i}")
        for i, raw in enumerate(doc["rules"])
    ]


def _entry_value(entry: Mapping[str, object], field: str):
    if field == "value":
        return entry.get("value")
    if field in ("count", "sum", "min", "max"):
        return entry.get(field)
    quantiles = entry.get("quantiles")
    if isinstance(quantiles, Mapping):
        return quantiles.get(field)
    return None


def _labels_match(
    entry_labels: Mapping[str, str], wanted: Mapping[str, str]
) -> bool:
    return all(
        entry_labels.get(k) == str(v) for k, v in wanted.items()
    )


def _threshold_alerts(
    rule: AlertRule, metrics: Sequence[Mapping[str, object]]
) -> List[Alert]:
    alerts: List[Alert] = []
    for entry in metrics:
        if entry.get("name") != rule.metric:
            continue
        labels = entry.get("labels", {})
        if not _labels_match(labels, rule.labels):
            continue
        observed = _entry_value(entry, rule.field)
        if observed is None:
            continue  # empty histogram / missing field: nothing to judge
        if _OPS[rule.op](observed, rule.value):
            alerts.append(
                Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    metric=rule.metric,
                    labels=dict(labels),
                    observed=float(observed),
                    threshold=rule.value,
                    message=(
                        f"{rule.metric}"
                        f"{dict(labels) if labels else ''} "
                        f"{rule.field}={observed:g} {rule.op} "
                        f"{rule.value:g}"
                    ),
                )
            )
    return alerts


def _burn_rate_alerts(
    rule: AlertRule, metrics: Sequence[Mapping[str, object]]
) -> List[Alert]:
    alerts: List[Alert] = []
    for tenant, gauges in snapshot_budgets(metrics).items():
        if not _labels_match({"tenant": tenant}, rule.labels) or not (
            {"budget.eps.spent", "budget.eps.remaining"} <= set(gauges)
        ):
            continue
        spent = float(gauges["budget.eps.spent"])
        total = spent + float(gauges["budget.eps.remaining"])
        if total <= 0.0:
            continue
        rate = spent / total
        if _OPS[rule.op](rate, rule.value):
            alerts.append(
                Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    metric="budget.eps.spent",
                    labels={"tenant": tenant},
                    observed=rate,
                    threshold=rule.value,
                    message=(
                        f"tenant {tenant!r} has burned "
                        f"{rate:.0%} of its epoch eps budget "
                        f"({rule.op} {rule.value:g})"
                    ),
                )
            )
    return alerts


def evaluate_rules(
    rules: Sequence[AlertRule], snapshot: Mapping[str, object]
) -> List[Alert]:
    """Evaluate rules over a telemetry snapshot document.

    Returns fired alerts in rule order (then metric order within a
    rule); an empty list means the deployment is quiet.
    """
    doc = validate_snapshot(dict(snapshot))
    metrics = doc["metrics"]
    alerts: List[Alert] = []
    for rule in rules:
        if rule.kind == "threshold":
            alerts.extend(_threshold_alerts(rule, metrics))
        else:
            alerts.extend(_burn_rate_alerts(rule, metrics))
    return alerts
