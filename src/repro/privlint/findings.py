"""The :class:`Finding` record produced by every privlint rule.

A finding pins one rule violation to one source location.  Findings
are plain value objects so the rest of the analyzer — suppression
filtering, the JSON report — can treat them uniformly; rules never
print, they only yield findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .. import documents
from ..exceptions import LintError

__all__ = ["Finding", "SEVERITIES", "finding_from_dict"]

#: Recognized severities, strongest first.  Severity is informational —
#: the lint gate fails on any finding regardless of severity —
#: but reports sort errors above warnings.
SEVERITIES: Tuple[str, ...] = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Parameters
    ----------
    rule:
        The rule identifier (``PL1`` .. ``PL4``).
    path:
        Display path of the offending file, POSIX-style and relative
        to the scan root's parent (``repro/serving/service.py``), so
        reports are stable across checkouts.
    line:
        1-based line of the offending statement (the ``def`` line for
        function-scoped findings).
    message:
        Human-readable description; embeds the function qualname for
        function-scoped findings.
    severity:
        ``error`` or ``warning`` (see :data:`SEVERITIES`).
    """

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise LintError(
                f"unknown finding severity {self.severity!r} "
                f"(expected one of {', '.join(SEVERITIES)})"
            )

    @property
    def sort_key(self) -> Tuple[str, int, str]:
        """Stable report order: by path, then line, then rule."""
        return (self.path, self.line, self.rule)

    def as_dict(self) -> Dict[str, object]:
        """The finding as a JSON-ready mapping."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        """One ``path:line: rule severity: message`` report line."""
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"[{self.severity}] {self.message}"
        )


def finding_from_dict(entry: object) -> Finding:
    """Rebuild a :class:`Finding` from a report mapping.

    Fail-closed: a malformed entry raises
    :class:`~repro.exceptions.LintError` rather than producing a
    half-populated finding that would silently never match anything.
    """
    entry = documents.require(
        entry,
        LintError,
        "finding entry",
        {"rule": str, "path": str, "line": int, "message": str},
    )
    return Finding(
        rule=entry["rule"],
        path=entry["path"],
        line=entry["line"],
        message=entry["message"],
        severity=str(entry.get("severity", "error")),
    )
