"""Rule-by-rule tests for the PL1-PL5 families.

The committed golden-file fixtures under ``fixtures/`` violate each
rule exactly once (with an inline-suppressed twin per rule); the
synthetic-tree tests pin down each rule's sub-checks and the allowed
spellings next to them.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.privlint import (
    PL1WeightTaint,
    PL5BudgetHygiene,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _by_rule(result):
    grouped = {}
    for finding in result.findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


class TestGoldenFixtures:
    """Each rule fires exactly once on its fixture and never on the
    clean module; each suppressed twin is silenced."""

    def test_exactly_one_finding_per_rule(self, fixtures_result):
        grouped = _by_rule(fixtures_result)
        assert sorted(grouped) == ["PL1", "PL2", "PL3", "PL4", "PL5"]
        for rule, findings in grouped.items():
            assert len(findings) == 1, (rule, findings)

    def test_findings_point_at_the_violation_files(
        self, fixtures_result
    ):
        paths = {f.rule: f.path for f in fixtures_result.findings}
        assert paths == {
            "PL1": "fixtures/pl1_taint.py",
            "PL2": "fixtures/pl2_rng.py",
            "PL3": "fixtures/telemetry/pl3_import.py",
            "PL4": "fixtures/pl4_clock.py",
            "PL5": "fixtures/serving/pl5_epoch.py",
        }

    def test_each_rule_has_a_suppressed_twin(self, fixtures_result):
        # One suppression per rule family: the twins prove the inline
        # ignore syntax silences every rule.
        assert fixtures_result.suppressed == 5

    def test_clean_module_passes(self, fixtures_result):
        assert not any(
            "clean.py" in f.path for f in fixtures_result.findings
        )

    def test_severities(self, fixtures_result):
        severities = {
            f.rule: f.severity for f in fixtures_result.findings
        }
        assert severities["PL1"] == "error"
        assert severities["PL4"] == "warning"
        assert severities["PL5"] == "error"

    def test_pl5_clean_twin_passes(self, fixtures_result):
        assert not any(
            "pl5_clean.py" in f.path for f in fixtures_result.findings
        )


class TestPL1:
    def test_serialization_escape_counts(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import json

                def dump_weights(graph, stream):
                    stream.write(json.dumps(graph.weight_vector()))
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL1"]
        assert "serializes/logs" in result.findings[0].message

    def test_noising_sink_clears_the_read(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def release(graph, eps, rng):
                    return graph.total_weight() + rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_ledger_spend_is_a_sink(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def epoch(graph, ledger, eps):
                    ledger.spend(eps, graph.weight_vector().size)
                    return graph.total_weight()
                '''
            }
        )
        assert not result.findings

    def test_neighbor_iteration_is_a_weight_read(self, lint_tree):
        # WeightedGraph.neighbors() and .predecessors() yield
        # (vertex, weight) pairs; .adjacent() yields vertices only.
        result = lint_tree(
            {
                "mod.py": '''
                def heaviest_step(graph, v):
                    return max(w for _, w in graph.neighbors(v))

                def heaviest_back_step(graph, v):
                    return max(w for _, w in graph.predecessors(v))

                def out_vertices(graph, v):
                    return list(graph.adjacent(v))
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL1", "PL1"]
        messages = [f.message for f in result.findings]
        assert "'heaviest_step'" in messages[0]
        assert "(neighbors)" in messages[0]
        assert "'heaviest_back_step'" in messages[1]
        assert "(predecessors)" in messages[1]

    def test_read_without_escape_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def validate(graph):
                    for w in graph.weight_vector():
                        assert w >= 0.0
                '''
            }
        )
        assert not result.findings

    def test_engine_kernels_no_longer_allowlisted(self, tmp_path):
        # The call-graph pass replaced the broad engine/algorithms
        # allowlist: a caller-less kernel that returns raw weight
        # state now fires, and gaining a noising caller exonerates
        # it — no allowlist entry required either way.
        (tmp_path / "repro" / "engine").mkdir(parents=True)
        kernel = tmp_path / "repro" / "engine" / "kernels.py"
        kernel.write_text(
            "def exact(csr):\n    return csr.weights.sum()\n"
        )
        result = run_lint(
            [tmp_path], package_root=tmp_path / "repro"
        )
        assert [f.rule for f in result.findings] == ["PL1"]
        assert "repro/engine/kernels.py" == result.findings[0].path
        # A noising caller in another module clears the kernel: the
        # raw value never leaves the mechanism boundary.
        release = tmp_path / "repro" / "engine" / "release.py"
        release.write_text(
            "from repro.engine.kernels import exact\n"
            "\n"
            "\n"
            "def released(csr, eps, rng):\n"
            "    return exact(csr) + rng.laplace(1.0 / eps)\n"
        )
        result = run_lint(
            [tmp_path], package_root=tmp_path / "repro"
        )
        assert not result.findings

    def test_allowlist_still_trusts_listed_modules(self, tmp_path):
        (tmp_path / "repro" / "graphs").mkdir(parents=True)
        module = tmp_path / "repro" / "graphs" / "loader.py"
        module.write_text(
            "def raw(graph):\n    return graph.total_weight()\n"
        )
        result = run_lint(
            [tmp_path], package_root=tmp_path / "repro"
        )
        assert not result.findings
        # The same function outside the allowlist fires.
        custom = PL1WeightTaint(allowlist=())
        result = run_lint(
            [tmp_path],
            package_root=tmp_path / "repro",
            rules=[custom],
        )
        assert [f.rule for f in result.findings] == ["PL1"]

    def test_nested_function_blamed_not_parent(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def outer():
                    def inner(graph):
                        return graph.total_weight()
                    return inner
                '''
            }
        )
        assert len(result.findings) == 1
        assert "outer.inner" in result.findings[0].message


class TestPL1Interprocedural:
    """The call-graph pass: taint follows calls, noise absorbs it."""

    def test_helper_noised_by_caller_is_clean(self, lint_tree):
        # The raw-returning helper needs no allowlist entry: its only
        # caller noises the value before it escapes.
        result = lint_tree(
            {
                "mod.py": '''
                def _total(graph):
                    return graph.total_weight()

                def release(graph, eps, rng):
                    return _total(graph) + rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_two_hop_chain_leaks_and_names_the_chain(
        self, lint_tree
    ):
        result = lint_tree(
            {
                "mod.py": '''
                def _total(graph):
                    return graph.total_weight()

                def summarize(graph):
                    return _total(graph)

                def report(graph):
                    print(summarize(graph))
                '''
            }
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "PL1"
        # Blame lands on the reader, with the escape route spelled
        # out caller-ward.
        assert "_total" in finding.message
        assert "call chain" in finding.message
        assert "summarize" in finding.message
        assert "report" in finding.message

    def test_cross_module_call_via_import_alias(self, lint_tree):
        result = lint_tree(
            {
                "pkg/__init__.py": "",
                "pkg/helper.py": '''
                def raw_total(graph):
                    return graph.total_weight()
                ''',
                "pkg/report.py": '''
                from . import helper

                def emit(graph):
                    print(helper.raw_total(graph))
                ''',
            }
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.path.endswith("pkg/helper.py")
        assert "raw_total" in finding.message
        assert "emit" in finding.message

    def test_recursive_cycle_terminates(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def walk(graph, n):
                    if n == 0:
                        return graph.total_weight()
                    return walk(graph, n - 1)

                def show(graph):
                    print(walk(graph, 3))
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL1"]
        assert "walk" in result.findings[0].message

    def test_midchain_ignore_absorbs_the_taint(self, lint_tree):
        # Trusting the boundary function silences the whole chain:
        # trusted nodes absorb taint instead of forwarding it.
        result = lint_tree(
            {
                "mod.py": '''
                def _total(graph):
                    return graph.total_weight()

                def summarize(graph):  # privlint: ignore[PL1] released upstream
                    return _total(graph)

                def report(graph):
                    print(summarize(graph))
                '''
            }
        )
        assert not result.findings
        # The mid-chain ignore did real work, so it is not reported
        # as a dead suppression.
        assert result.unused_ignores == ()


class TestPL5:
    def test_draw_without_spend_fires(self, lint_tree):
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def refresh(graph, eps, rng):
                    return rng.laplace(1.0 / eps)
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL5"]
        finding = result.findings[0]
        assert finding.severity == "error"
        assert "spend first, release second" in finding.message

    def test_spend_before_draw_passes(self, lint_tree):
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def refresh(graph, ledger, eps, rng):
                    ledger.spend(eps)
                    return rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_draw_then_spend_still_fires(self, lint_tree):
        # Program order matters: charging the ledger after the draw
        # is not budget hygiene.
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def refresh(graph, ledger, eps, rng):
                    noisy = rng.laplace(1.0 / eps)
                    ledger.spend(eps)
                    return noisy
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL5"]

    def test_transitive_spend_guards_the_draw(self, lint_tree):
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def _charge(ledger, eps):
                    ledger.spend(eps)

                def refresh(graph, ledger, eps, rng):
                    _charge(ledger, eps)
                    return rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_unguarded_callee_propagates_to_entry(self, lint_tree):
        # The entry point inherits the obligation even when the draw
        # is buried in a helper.
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def _draw_batch(eps, rng):
                    return rng.laplace(1.0 / eps)

                def refresh(graph, eps, rng):
                    return _draw_batch(eps, rng)
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL5"]
        assert "_draw_batch" in result.findings[0].message

    def test_pure_distribution_helpers_are_not_draws(self, lint_tree):
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def refresh(graph, eps, q):
                    return laplace_quantile(q, 1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_non_entry_helpers_are_not_flagged(self, lint_tree):
        result = lint_tree(
            {
                "serving/epoch.py": '''
                def estimate(graph, eps, rng):
                    return rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_rule_only_applies_to_serving_modules(self, lint_tree):
        result = lint_tree(
            {
                "core/epoch.py": '''
                def refresh(graph, eps, rng):
                    return rng.laplace(1.0 / eps)
                '''
            }
        )
        assert not result.findings

    def test_release_primitives_are_exempt(self, lint_tree):
        tree = {
            "serving/synopsis.py": '''
            def build_synopsis(graph, eps, rng):
                return rng.laplace(1.0 / eps)
            '''
        }
        result = lint_tree(tree)
        assert [f.rule for f in result.findings] == ["PL5"]
        # Declared a release primitive, the builder's obligation
        # falls on its callers instead.
        exempt = PL5BudgetHygiene(
            primitive_globs=("*serving/synopsis.py",)
        )
        result = lint_tree(tree, rules=[exempt])
        assert not result.findings


class TestPL2:
    @pytest.mark.parametrize(
        "call",
        [
            "random.random()",
            "random.seed(0)",
            "np.random.rand(4)",
            "np.random.seed(7)",
        ],
    )
    def test_global_state_calls_fire(self, lint_tree, call):
        result = lint_tree(
            {
                "mod.py": f'''
                import random

                import numpy as np

                def draw():
                    return {call}
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL2"]

    def test_bare_default_rng_fires(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import numpy as np

                def fresh():
                    return np.random.default_rng()
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL2"]
        assert "OS entropy" in result.findings[0].message

    def test_seeded_default_rng_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import numpy as np

                def fresh(seed):
                    return np.random.default_rng(seed)
                '''
            }
        )
        assert not result.findings

    def test_time_seeded_generator_fires(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import time

                import numpy as np

                def sneaky():
                    return np.random.default_rng(int(time.time()))
                '''
            }
        )
        rules = sorted(f.rule for f in result.findings)
        # Both the wall-clock read (PL4) and the time-seeded
        # generator (PL2) fire on this line.
        assert rules == ["PL2", "PL4"]

    def test_draw_without_rng_parameter_fires(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                GLOBAL_RNG = object()

                def noisy(value):
                    gen = GLOBAL_RNG
                    return value + gen.laplace(1.0)
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL2"]
        assert "thread the generator" in result.findings[0].message

    def test_threaded_rng_parameter_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def noisy(value, rng):
                    return value + rng.laplace(1.0)

                def renamed(value, generator):
                    return value + generator.laplace(1.0)
                '''
            }
        )
        assert not result.findings

    def test_closure_inherits_threaded_rng(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def make_sampler(rng):
                    def sample(value):
                        return value + rng.laplace(1.0)
                    return sample
                '''
            }
        )
        assert not result.findings

    def test_constructor_threaded_attribute_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                class Mechanism:
                    def __init__(self, rng):
                        self._rng = rng

                    def release(self, value):
                        return value + self._rng.laplace(1.0)
                '''
            }
        )
        assert not result.findings

    def test_local_variable_shadowing_random_passes(self, lint_tree):
        # A local called ``random`` is not the stdlib module; without
        # an import the dotted origin never resolves.
        result = lint_tree(
            {
                "mod.py": '''
                def pick(random):
                    return random.random()
                '''
            }
        )
        assert not result.findings


class TestPL3:
    def test_relative_import_resolves_and_fires(self, lint_tree):
        result = lint_tree(
            {
                "repro/__init__.py": "",
                "repro/telemetry/__init__.py": "",
                "repro/telemetry/bad.py": '''
                from ..rng import Rng
                ''',
            }
        )
        assert [f.rule for f in result.findings] == ["PL3"]
        assert "rng" in result.findings[0].message

    def test_rng_parameter_in_signature_fires(self, lint_tree):
        result = lint_tree(
            {
                "telemetry/probe.py": '''
                def observe(value, rng):
                    return value
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL3"]
        assert "purely observational" in result.findings[0].message

    def test_telemetry_internal_imports_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/telemetry/__init__.py": "",
                "repro/telemetry/ok.py": '''
                from ..exceptions import TelemetryError
                from .registry import MetricsRegistry
                ''',
            }
        )
        assert not result.findings

    def test_rule_only_applies_to_telemetry_modules(self, lint_tree):
        result = lint_tree(
            {
                "serving/ok.py": '''
                from repro.dp.mechanisms import LaplaceMechanism

                def release(value, rng):
                    return value + rng.laplace(1.0)
                '''
            }
        )
        assert not result.findings


class TestPL4:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\n\ndef f():\n    return time.time()",
            "import datetime\n\n\ndef f():\n"
            "    return datetime.datetime.now()",
            "from datetime import datetime\n\n\ndef f():\n"
            "    return datetime.now()",
        ],
    )
    def test_wall_clock_reads_fire(self, lint_tree, snippet):
        result = lint_tree({"mod.py": snippet})
        assert [f.rule for f in result.findings] == ["PL4"]

    def test_monotonic_clock_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import time

                def timed(fn):
                    start = time.perf_counter()
                    fn()
                    return time.perf_counter() - start
                '''
            }
        )
        assert not result.findings

    def test_unordered_dual_lock_fires(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def merge(a, b):
                    with a._lock, b._lock:
                        a.count += b.count
                '''
            }
        )
        assert [f.rule for f in result.findings] == ["PL4"]
        assert "id-ordering" in result.findings[0].message

    def test_id_ordered_dual_lock_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def merge(a, b):
                    first, second = sorted((a, b), key=id)
                    with first._lock, second._lock:
                        a.count += b.count
                '''
            }
        )
        assert not result.findings

    def test_single_lock_with_passes(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def bump(self):
                    with self._lock:
                        self.count += 1
                '''
            }
        )
        assert not result.findings


class TestSelfHost:
    """The acceptance criterion: the shipped package lints clean."""

    def test_src_repro_is_clean(self):
        result = run_lint()
        assert result.findings == (), [
            f.render() for f in result.findings
        ]

    def test_fixture_root_is_where_we_think(self):
        assert (FIXTURES / "pl1_taint.py").exists()

    def test_self_host_stays_fast(self):
        # The ISSUE's perf bar: the interprocedural pass keeps the
        # full self-host scan (call graph + fixpoints) under 5s.
        start = time.perf_counter()
        run_lint()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"self-host lint took {elapsed:.2f}s"
