"""privlint — the repo's AST-based privacy/determinism static analyzer.

The serving stack's correctness rests on cross-cutting invariants that
unit tests can only sample: every raw-weight read is budget-accounted
and noised before release (the Sealfon model — topology public,
weights private), randomness flows only through an explicitly threaded
:class:`~repro.rng.Rng`, telemetry/audit/profiling are purely
observational, and concurrency/time hygiene keeps seeded outputs
deterministic.  privlint turns those invariants into machine-checked
properties of every source file: a zero-dependency ``ast`` visitor
pipeline with five rule families (PL1 privacy taint, PL2 RNG
discipline, PL3 observational purity, PL4 determinism hygiene, PL5
budget hygiene), per-line ``# privlint: ignore[rule]`` suppressions
with dead-ignore detection, and a versioned ``repro-lint`` report
document with a fail-closed reader.  Nothing grandfathers a finding:
every one is fixed or carries an inline justification.

PL1 and PL5 are inter-procedural: a project-wide call graph
(:mod:`repro.privlint.callgraph`) carries per-function summaries — reads
private weight state, returns a derived value, noises, spends budget
— that the rules propagate to a bounded, cycle-safe fixpoint.  A
helper that returns a raw weight-derived value is clean when every
caller noises it; a serving epoch that can reach a ``laplace_*`` draw
before a ledger ``spend`` is flagged.

Run it via the CLI (the CI lint gate)::

    python -m repro.cli lint                      # self-host src/repro
    python -m repro.cli lint --format json        # machine-readable
    python -m repro.cli lint --paths src/repro/serving   # pre-commit
    python -m repro.cli lint --strict-ignores     # dead ignores fail

or programmatically::

    from repro.privlint import run_lint, lint_document

    document = lint_document(run_lint())
    assert document["summary"]["total"] == 0

See the README's "Static analysis" section for the rule catalog with
motivating examples and the suppression syntax.
"""

from __future__ import annotations

from .callgraph import CallGraph, CallSite, FunctionNode, build_call_graph
from .engine import (
    EXCLUDED_DIR_NAMES,
    FunctionInfo,
    LintResult,
    ModuleUnit,
    ProjectContext,
    UnusedIgnore,
    default_package_root,
    iter_source_files,
    load_module_unit,
    run_lint,
)
from .findings import SEVERITIES, Finding, finding_from_dict
from .report import (
    LINT_FORMAT,
    LINT_VERSION,
    lint_document,
    render_text,
    validate_lint_report,
)
from .rules import (
    DEFAULT_RULES,
    PL1_ALLOWLIST,
    PL5_RELEASE_PRIMITIVES,
    PL5_SERVING_GLOBS,
    PL1WeightTaint,
    PL2RngDiscipline,
    PL3ObservationalPurity,
    PL4DeterminismHygiene,
    PL5BudgetHygiene,
    Rule,
)
from .suppressions import is_suppressed, parse_suppressions

__all__ = [
    "Finding",
    "finding_from_dict",
    "SEVERITIES",
    "FunctionInfo",
    "ModuleUnit",
    "ProjectContext",
    "UnusedIgnore",
    "LintResult",
    "EXCLUDED_DIR_NAMES",
    "default_package_root",
    "iter_source_files",
    "load_module_unit",
    "run_lint",
    "CallGraph",
    "CallSite",
    "FunctionNode",
    "build_call_graph",
    "Rule",
    "DEFAULT_RULES",
    "PL1_ALLOWLIST",
    "PL5_SERVING_GLOBS",
    "PL5_RELEASE_PRIMITIVES",
    "PL1WeightTaint",
    "PL2RngDiscipline",
    "PL3ObservationalPurity",
    "PL4DeterminismHygiene",
    "PL5BudgetHygiene",
    "parse_suppressions",
    "is_suppressed",
    "LINT_FORMAT",
    "LINT_VERSION",
    "lint_document",
    "validate_lint_report",
    "render_text",
]
