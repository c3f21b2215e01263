"""The versioned ``repro-lint`` report document.

The report is the machine-readable half of the lint gate: CI runs
``python -m repro.cli lint --format json``, uploads the document as an
artifact, and fails the build when it lists any finding.  Like every
other ``repro-*`` document (see :mod:`repro.documents`) it carries
``format``/``version`` markers and a fail-closed reader,
:func:`validate_lint_report`, that raises
:class:`~repro.exceptions.LintError` on anything it does not fully
understand.

Nothing grandfathers a finding: an intentional violation carries an
inline ``# privlint: ignore[rule]`` justification on its own line, and
an ignore that suppresses nothing is itself reported (see
:mod:`repro.privlint.suppressions`).
"""

from __future__ import annotations

from typing import Dict, List

from .. import documents
from ..exceptions import LintError
from .engine import LintResult
from .findings import finding_from_dict

__all__ = [
    "LINT_FORMAT",
    "LINT_VERSION",
    "lint_document",
    "validate_lint_report",
    "render_text",
]

# Version 2 added the ``unused_ignores`` section (dead-suppression
# detection) and its summary count; version 3 drops the baseline's
# ``baselined`` markers and the ``new``/``baselined`` summary counts.
LINT_FORMAT = "repro-lint"
LINT_VERSION = 3

_SUMMARY_KEYS = {"total": int, "suppressed": int, "unused_ignores": int}
_UNUSED_IGNORE_KEYS = {"path": str, "line": int, "rules": list}


def lint_document(result: LintResult) -> Dict[str, object]:
    """The versioned JSON report for one analyzer run.

    Every unsuppressed finding is listed; the ``summary`` block
    carries the counts the gate and CI read (the gate fails when
    ``total`` is non-zero).
    """
    findings = [finding.as_dict() for finding in result.findings]
    return documents.new(
        LINT_FORMAT,
        LINT_VERSION,
        files_scanned=len(result.files),
        findings=findings,
        unused_ignores=[
            ignore.as_dict() for ignore in result.unused_ignores
        ],
        summary={
            "total": len(findings),
            "suppressed": result.suppressed,
            "unused_ignores": len(result.unused_ignores),
        },
    )


def validate_lint_report(doc: object) -> Dict[str, object]:
    """Check a parsed lint report document; returns it typed as a dict.

    Fail-closed in the house style of ``validate_profile`` /
    ``validate_flight``: wrong format marker, unsupported version, a
    missing findings list, a malformed finding entry, or a summary
    that disagrees with the findings it summarizes all raise
    :class:`~repro.exceptions.LintError`.
    """
    doc = documents.check(
        doc, LINT_FORMAT, LINT_VERSION, LintError, "lint report",
        {"files_scanned": int, "findings": list, "unused_ignores": list,
         "summary": dict},
    )
    findings = doc["findings"]
    for entry in findings:
        finding_from_dict(entry)  # raises on malformed entries
    unused = doc["unused_ignores"]
    for entry in unused:
        documents.require(
            entry, LintError, "unused-ignore entry", _UNUSED_IGNORE_KEYS
        )
    summary = documents.require(
        doc["summary"], LintError, "lint report summary", _SUMMARY_KEYS
    )
    if summary["total"] != len(findings):
        raise LintError(
            "lint report summary disagrees with its findings "
            f"(summary says total={summary['total']}, document lists "
            f"{len(findings)})"
        )
    if summary["unused_ignores"] != len(unused):
        raise LintError(
            "lint report summary disagrees with its unused_ignores "
            f"(summary says {summary['unused_ignores']}, document "
            f"lists {len(unused)})"
        )
    return doc


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def render_text(
    document: Dict[str, object], show_unused_ignores: bool = False
) -> str:
    """Human-readable rendering of a lint report document: one
    ``path:line: rule [severity] message`` line per finding,
    optionally the unused-ignore warnings, then the summary line the
    gate acts on."""
    lines: List[str] = [
        finding_from_dict(entry).render() for entry in document["findings"]
    ]
    if show_unused_ignores:
        for entry in document.get("unused_ignores", []):
            rules = ",".join(entry["rules"])
            lines.append(
                f"{entry['path']}:{entry['line']}: unused privlint "
                f"ignore[{rules}] (suppressed no finding)"
            )
    summary = document["summary"]
    lines.append(
        f"privlint: {document['files_scanned']} files, "
        f"{summary['total']} finding(s) "
        f"({summary['suppressed']} suppressed, "
        f"{summary['unused_ignores']} unused ignore(s))"
    )
    return "\n".join(lines) + "\n"
