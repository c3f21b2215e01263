"""Alert rules and a calibration watchdog over telemetry snapshots.

Two watchers close the loop between *recording* observability data
(PR 6's registry and the audit trail) and *acting* on it:

* **Declarative alert rules** — JSON documents (format
  ``repro-alert-rules`` v1) evaluated against a standard telemetry
  snapshot.  A ``threshold`` rule compares one field of matching
  metric entries (a counter/gauge ``value``, or a histogram's
  ``count``/``sum``/``p50``/``p95``/``p99``) against a bound; a
  ``burn-rate`` rule fires when a tenant's spent fraction of its
  epoch budget — reconstructed from the ``budget.eps.spent`` /
  ``budget.eps.remaining`` gauges — crosses a threshold, the "this
  epoch will run out of privacy budget" pager.
* **A calibration watchdog** — the serving stack advertises per-pair
  noise scales (:meth:`~repro.serving.estimates.Estimate`'s
  ``noise_scale``, from each synopsis's ``noise_scale_for``).
  Nothing checks the *observed* dispersion of answers actually
  matches.  The watchdog re-estimates a fixed probe set across
  epochs and compares the sample standard deviation of each pair's
  answers against the advertised Laplace std (``sqrt(2) * b`` for
  scale ``b``), flagging pairs whose ratio drifts outside a
  configurable band.  Valid when the underlying true distances stay
  fixed across the observed epochs (refresh with the same weights),
  so dispersion is noise and nothing else — the watchdog is a
  deployment self-test, not a production invariant.

Like all telemetry, evaluation is read-only over snapshots and never
touches an :class:`~repro.rng.Rng`; the watchdog's probes go through
the public ``estimate()`` surface and consume no extra budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .. import documents
from ..exceptions import TelemetryError
from .export import snapshot_budgets, validate_snapshot

__all__ = [
    "ALERT_RULES_FORMAT",
    "ALERT_RULES_VERSION",
    "Alert",
    "AlertRule",
    "CalibrationWatchdog",
    "evaluate_rules",
    "load_alert_rules",
]

ALERT_RULES_FORMAT = "repro-alert-rules"
ALERT_RULES_VERSION = 1

_CALIBRATION_FORMAT = "repro-calibration"
_CALIBRATION_VERSION = 1

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


#: Laplace(b) has variance ``2 b**2``: the advertised standard
#: deviation of an answer with noise scale ``b``.
_LAPLACE_STD_FACTOR = math.sqrt(2.0)


@dataclass
class _PairHistory:
    values: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    epochs: List[int] = field(default_factory=list)


class CalibrationWatchdog:
    """Checks observed answer dispersion against advertised noise.

    Parameters
    ----------
    pairs:
        The probe ``(source, target)`` pairs re-estimated each epoch.
    band:
        Acceptable ``observed_std / advertised_std`` range; outside
        it the pair is flagged as drifting (too noisy, or suspiciously
        quiet — both mean the advertised confidence intervals are
        wrong).
    min_epochs:
        Observations required before a pair is judged (a sample std
        needs at least 2).
    telemetry:
        Optional bundle: :meth:`report` publishes per-pair
        ``calibration.ratio`` gauges and a ``calibration.drift``
        counter into it.

    The check is only meaningful when the *true* distances of the
    probe pairs are identical across the observed epochs (e.g. epochs
    refreshed with the same weights): then every answer is ``truth +
    Laplace(scale)`` and the sample std estimates the noise std.
    """

    def __init__(
        self,
        pairs: Sequence[Tuple[object, object]],
        band: Tuple[float, float] = (0.5, 2.0),
        min_epochs: int = 2,
        telemetry=None,
    ) -> None:
        low, high = band
        if not 0.0 < low < high:
            raise TelemetryError(
                f"calibration band must satisfy 0 < low < high, got "
                f"({low}, {high})"
            )
        if min_epochs < 2:
            raise TelemetryError(
                f"min_epochs must be at least 2 (a sample std needs "
                f"two observations), got {min_epochs}"
            )
        self._pairs = list(pairs)
        self._band = (float(low), float(high))
        self._min_epochs = int(min_epochs)
        self._telemetry = telemetry
        self._history: Dict[Tuple[object, object], _PairHistory] = {
            pair: _PairHistory() for pair in self._pairs
        }

    @property
    def pairs(self) -> List[Tuple[object, object]]:
        """The probe pairs."""
        return list(self._pairs)

    @property
    def band(self) -> Tuple[float, float]:
        """The acceptable observed/advertised std ratio range."""
        return self._band

    def observe_epoch(self, server) -> None:
        """Probe every pair through ``server.estimate`` once.

        Free post-processing: estimates read the standing synopsis.
        Call once per epoch, after each refresh.
        """
        for pair in self._pairs:
            estimate = server.estimate(*pair)
            self.observe_value(
                pair, estimate.value, estimate.noise_scale,
                epoch=estimate.epoch,
            )

    def observe_value(
        self,
        pair: Tuple[object, object],
        value: float,
        scale: float,
        epoch: int = 0,
    ) -> None:
        """Record one probe observation (the testable low level)."""
        history = self._history.get(pair)
        if history is None:
            raise TelemetryError(
                f"pair {pair!r} is not one of the watchdog's probes"
            )
        history.values.append(float(value))
        history.scales.append(float(scale))
        history.epochs.append(int(epoch))

    @staticmethod
    def _sample_std(values: Sequence[float]) -> float:
        n = len(values)
        mean = sum(values) / n
        return math.sqrt(
            sum((v - mean) ** 2 for v in values) / (n - 1)
        )

    def report(self) -> Dict[str, object]:
        """Judge every probe pair; publishes gauges when wired.

        Returns ``{"format": "repro-calibration", "version": 1,
        "band": [lo, hi], "min_epochs": n, "pairs": [...],
        "drifting": [...]}`` where each pair entry
        carries the observation count, the mean advertised scale, the
        advertised and observed stds, their ratio, and a status of
        ``"ok"`` / ``"drift"`` / ``"pending"`` (not enough epochs) /
        ``"deterministic"`` (advertised scale 0 — nothing to check
        unless dispersion appears).
        """
        low, high = self._band
        entries: List[Dict[str, object]] = []
        drifting: List[str] = []
        for pair in self._pairs:
            history = self._history[pair]
            label = f"{pair[0]}->{pair[1]}"
            n = len(history.values)
            entry: Dict[str, object] = {"pair": label, "samples": n}
            if n < self._min_epochs:
                entry["status"] = "pending"
                entries.append(entry)
                continue
            mean_scale = sum(history.scales) / n
            advertised = _LAPLACE_STD_FACTOR * mean_scale
            observed = self._sample_std(history.values)
            entry["mean_scale"] = mean_scale
            entry["advertised_std"] = advertised
            entry["observed_std"] = observed
            if advertised == 0.0:
                # A deterministic answer (same-vertex, or a released
                # zero-scale entry): any dispersion at all is drift.
                drift = observed > 0.0
                entry["ratio"] = None
                entry["status"] = (
                    "drift" if drift else "deterministic"
                )
            else:
                ratio = observed / advertised
                drift = not low <= ratio <= high
                entry["ratio"] = ratio
                entry["status"] = "drift" if drift else "ok"
                if self._telemetry is not None:
                    self._telemetry.registry.gauge(
                        "calibration.ratio", pair=label
                    ).set(ratio)
            if drift:
                drifting.append(label)
                if self._telemetry is not None:
                    self._telemetry.registry.counter(
                        "calibration.drift", pair=label
                    ).inc()
            entries.append(entry)
        return documents.new(
            _CALIBRATION_FORMAT,
            _CALIBRATION_VERSION,
            band=[low, high],
            min_epochs=self._min_epochs,
            pairs=entries,
            drifting=drifting,
        )

    def alerts(self) -> List[Alert]:
        """Drifting pairs rendered as :class:`Alert` objects."""
        report = self.report()
        low, high = self._band
        alerts: List[Alert] = []
        for entry in report["pairs"]:
            if entry.get("status") != "drift":
                continue
            ratio = entry.get("ratio")
            alerts.append(
                Alert(
                    rule="calibration-watchdog",
                    severity="critical",
                    metric="calibration.ratio",
                    labels={"pair": str(entry["pair"])},
                    observed=(
                        float(ratio)
                        if ratio is not None
                        else float(entry["observed_std"])
                    ),
                    threshold=high,
                    message=(
                        f"pair {entry['pair']} dispersion is "
                        f"{'outside' if ratio is not None else 'nonzero for'}"
                        f" the advertised noise scale "
                        f"(band [{low:g}, {high:g}])"
                    ),
                )
            )
        return alerts
