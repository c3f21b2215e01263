"""Unit tests for :mod:`repro.telemetry.monitor` — declarative alert
rules."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import Telemetry
from repro.telemetry.monitor import (
    ALERT_RULES_FORMAT,
    ALERT_RULES_VERSION,
    AlertRule,
    evaluate_rules,
    load_alert_rules,
)


def _rules_doc(*rules: dict) -> str:
    return json.dumps(
        {
            "format": ALERT_RULES_FORMAT,
            "version": ALERT_RULES_VERSION,
            "rules": list(rules),
        }
    )


def _snapshot() -> dict:
    telemetry = Telemetry()
    telemetry.registry.counter("serving.queries", tenant="west").inc(40)
    telemetry.registry.gauge("budget.eps.spent", tenant="west").set(0.9)
    telemetry.registry.gauge(
        "budget.eps.remaining", tenant="west"
    ).set(0.1)
    telemetry.registry.gauge("budget.eps.spent", tenant="east").set(0.2)
    telemetry.registry.gauge(
        "budget.eps.remaining", tenant="east"
    ).set(0.8)
    latency = telemetry.registry.histogram(
        "serving.query.latency", tenant="west"
    )
    for value in (1e-6, 2e-6, 100e-6):
        latency.observe(value)
    return telemetry.snapshot()


class TestRuleParsing:
    def test_round_trip(self):
        rules = load_alert_rules(
            _rules_doc(
                {
                    "name": "hot-queries",
                    "metric": "serving.queries",
                    "op": ">",
                    "value": 10,
                },
                {
                    "name": "budget-burn",
                    "kind": "burn-rate",
                    "op": ">=",
                    "value": 0.8,
                    "severity": "critical",
                },
            )
        )
        assert [r.name for r in rules] == ["hot-queries", "budget-burn"]
        assert rules[1].kind == "burn-rate"
        assert rules[1].severity == "critical"

    def test_foreign_format_rejected(self):
        with pytest.raises(TelemetryError, match="format"):
            load_alert_rules(json.dumps({"format": "x", "version": 1}))

    def test_wrong_version_rejected(self):
        with pytest.raises(TelemetryError, match="version"):
            load_alert_rules(
                json.dumps(
                    {"format": ALERT_RULES_FORMAT, "version": 99, "rules": []}
                )
            )

    def test_unknown_rule_fields_rejected(self):
        with pytest.raises(TelemetryError, match="unknown fields"):
            load_alert_rules(
                _rules_doc({"name": "r", "metric": "m", "surprise": 1})
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"name": ""},
            {"name": "r", "kind": "nope"},
            {"name": "r", "kind": "threshold"},  # no metric
            {"name": "r", "metric": "m", "field": "p42"},
            {"name": "r", "metric": "m", "op": "~"},
            {"name": "r", "metric": "m", "severity": "meh"},
        ],
    )
    def test_invalid_rules_rejected(self, bad):
        with pytest.raises(TelemetryError):
            AlertRule(**bad)


class TestThresholdRules:
    def test_counter_threshold_fires(self):
        rules = load_alert_rules(
            _rules_doc(
                {
                    "name": "hot",
                    "metric": "serving.queries",
                    "op": ">",
                    "value": 10,
                }
            )
        )
        alerts = evaluate_rules(rules, _snapshot())
        assert len(alerts) == 1
        assert alerts[0].rule == "hot"
        assert alerts[0].observed == 40.0
        assert alerts[0].labels == {"tenant": "west"}

    def test_quiet_rule_stays_quiet(self):
        rules = [
            AlertRule(name="q", metric="serving.queries", op=">", value=1e9)
        ]
        assert evaluate_rules(rules, _snapshot()) == []

    def test_label_subset_matching(self):
        rules = [
            AlertRule(
                name="east-only",
                metric="serving.queries",
                op=">",
                value=0,
                labels={"tenant": "east"},
            )
        ]
        assert evaluate_rules(rules, _snapshot()) == []

    def test_histogram_quantile_field(self):
        # The streaming sketch's p99 over three samples lands near the
        # median (~2us); the rule reads the published quantile, so the
        # threshold sits below it.
        rules = [
            AlertRule(
                name="slow-p99",
                metric="serving.query.latency",
                field="p99",
                op=">",
                value=1e-6,
                severity="critical",
            )
        ]
        alerts = evaluate_rules(rules, _snapshot())
        assert len(alerts) == 1
        assert alerts[0].severity == "critical"

    def test_histogram_max_field(self):
        rules = [
            AlertRule(
                name="slow-max",
                metric="serving.query.latency",
                field="max",
                op=">=",
                value=100e-6,
            )
        ]
        (alert,) = evaluate_rules(rules, _snapshot())
        assert alert.observed == pytest.approx(100e-6)

    def test_missing_field_is_not_a_fire(self):
        # Counters have no quantiles: the rule silently skips them.
        rules = [
            AlertRule(
                name="r", metric="serving.queries", field="p99",
                op=">", value=0,
            )
        ]
        assert evaluate_rules(rules, _snapshot()) == []

    def test_alert_as_dict_json_safe(self):
        rules = [
            AlertRule(name="hot", metric="serving.queries", op=">", value=1)
        ]
        (alert,) = evaluate_rules(rules, _snapshot())
        assert json.loads(json.dumps(alert.as_dict()))["rule"] == "hot"


class TestBurnRateRules:
    def test_fires_per_burning_tenant(self):
        rules = [
            AlertRule(
                name="burn", kind="burn-rate", op=">=", value=0.8,
                severity="critical",
            )
        ]
        alerts = evaluate_rules(rules, _snapshot())
        assert len(alerts) == 1
        assert alerts[0].labels == {"tenant": "west"}
        assert alerts[0].observed == pytest.approx(0.9)

    def test_zero_total_budget_skipped(self):
        telemetry = Telemetry()
        telemetry.registry.gauge("budget.eps.spent", tenant="t").set(0.0)
        telemetry.registry.gauge(
            "budget.eps.remaining", tenant="t"
        ).set(0.0)
        rules = [
            AlertRule(name="burn", kind="burn-rate", op=">=", value=0.0)
        ]
        assert evaluate_rules(rules, telemetry.snapshot()) == []
