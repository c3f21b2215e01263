"""Inline ``# privlint: ignore[rule]`` suppression comments.

A finding is suppressed by a trailing comment on the *same physical
line* the finding points at (the ``def`` line for function-scoped
findings, the call line for call-site findings)::

    "ts": time.time(),  # privlint: ignore[PL4] observational timestamp

The bracket list names one or more rules (``ignore[PL1,PL4]``) or
``*`` for all rules on that line.  Everything after the closing
bracket is the human justification — the house rule (README "Static
analysis") is that every ignore carries one, though the analyzer only
enforces the syntax.

Suppressions are deliberately line-scoped and rule-scoped: a file- or
block-wide ignore would let new violations ride in under an old
justification.  They are also the only way to accept a finding — the
analyzer has no baseline of grandfathered findings — and an ignore
that suppresses nothing is reported as dead (``lint
--report-unused-ignores``; ``--strict-ignores`` fails the gate on it).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List

from ..exceptions import LintError

__all__ = ["parse_suppressions", "is_suppressed"]

#: Matches the ignore[PL1] / ignore[PL1, PL2] / ignore[*] bracket
#: list after the comment marker (see module docstring for examples).
_SUPPRESSION_RE = re.compile(
    r"#\s*privlint:\s*ignore\[([^\]]*)\]"
)

#: One rule token inside the brackets.
_RULE_TOKEN_RE = re.compile(r"^(?:\*|[A-Z][A-Z0-9]*)$")


def _comment_tokens(source: str, path: str):
    """(lineno, text) for every real comment token — docstrings and
    string literals that merely *mention* the syntax never suppress."""
    try:
        for token in tokenize.generate_tokens(
            io.StringIO(source).readline
        ):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except tokenize.TokenError as error:
        raise LintError(
            f"cannot tokenize {path}: {error}"
        ) from None


def parse_suppressions(
    source: str, path: str = "<string>"
) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rules suppressed on that line.

    Fail-closed on malformed bracket lists: an empty list or a token
    that is not a rule id (or ``*``) raises
    :class:`~repro.exceptions.LintError` — a typo like
    ``ignore[pl4]`` must not silently suppress nothing.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, comment in _comment_tokens(source, path):
        match = _SUPPRESSION_RE.search(comment)
        if match is None:
            continue
        tokens: List[str] = [
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        ]
        if not tokens:
            raise LintError(
                f"{path}:{lineno}: empty privlint ignore list "
                "(write ignore[RULE] or ignore[*])"
            )
        for token in tokens:
            if not _RULE_TOKEN_RE.match(token):
                raise LintError(
                    f"{path}:{lineno}: malformed privlint ignore "
                    f"token {token!r} (rule ids are uppercase, "
                    "e.g. ignore[PL4])"
                )
        suppressions[lineno] = frozenset(tokens)
    return suppressions


def is_suppressed(
    rule: str, line: int, suppressions: Dict[int, FrozenSet[str]]
) -> bool:
    """True when ``rule`` is suppressed on ``line``."""
    rules = suppressions.get(line)
    return rules is not None and (rule in rules or "*" in rules)
