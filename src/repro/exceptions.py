"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  More specific subclasses distinguish structural graph
problems from privacy-accounting problems, mirroring the two halves of the
paper's model: the public topology and the private weights.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """A structural problem with a graph (bad vertex, bad edge, ...)."""


class VertexNotFoundError(GraphError):
    """A vertex referenced by the caller does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """An edge referenced by the caller does not exist in the graph."""

    def __init__(self, edge: object) -> None:
        super().__init__(f"edge {edge!r} is not in the graph")
        self.edge = edge


class DisconnectedGraphError(GraphError):
    """An operation requiring connectivity was attempted on a
    disconnected graph (e.g. exact distance between unreachable
    vertices, spanning tree of a disconnected graph)."""


class NotATreeError(GraphError):
    """An operation specific to trees was attempted on a non-tree graph.

    The tree algorithms of Section 4.1 of the paper require the public
    topology to be a tree; this error signals a violated precondition.
    """


class WeightError(ReproError):
    """An edge-weight function violates a precondition.

    Examples: negative weights passed to an algorithm that assumes
    ``w : E -> R+`` (Definition 2.1), or weights exceeding the bound ``M``
    required by the bounded-weight algorithms of Section 4.2.
    """


class SynopsisError(GraphError):
    """A problem with a serialized distance synopsis (unknown ``kind``,
    wrong format marker, unsupported version, or a structure that
    could not answer right: tree parent links that do not climb to the
    root, hub indices outside the sites, non-finite released values).

    Subclasses :class:`GraphError` (synopsis documents are public
    topology + released values, i.e. graph artifacts) and therefore
    :class:`ReproError`; the message for an unknown kind lists the
    registered kinds so a caller can see what its build supports.
    """


class PrivacyError(ReproError):
    """A privacy parameter or budget constraint is violated.

    Raised for non-positive ``eps``, ``delta`` outside ``[0, 1)``, or an
    exhausted privacy budget in :class:`repro.dp.accountant.Accountant`.
    """


class MechanismError(PrivacyError):
    """A problem with the release-mechanism registry (unknown mechanism
    name, duplicate registration, a mechanism asked to build outside
    its preconditions).

    Subclasses :class:`PrivacyError`: mechanisms are privacy mechanisms,
    and the pre-redesign services raised ``PrivacyError`` for unknown
    mechanism names, so existing ``except`` clauses keep working.
    """


class BudgetExceededError(PrivacyError):
    """The privacy budget tracked by an accountant has been exhausted."""


class MatchingError(ReproError):
    """A perfect matching was requested on a graph that has none, or a
    released matching fails validation."""


class EngineError(ReproError):
    """A kernel precondition violated in :mod:`repro.engine` (a vertex
    or source index outside the compiled graph, or weights on which a
    relaxation sweep never settles), or an exact sweep that left a
    required target unsettled."""


class LintError(ReproError):
    """A problem inside the :mod:`repro.privlint` static analyzer: an
    unparseable source file, a malformed ``repro-lint`` report, or a
    malformed suppression.

    The analyzer is fail-closed like the rest of the tooling: a file it
    cannot parse or a document it cannot trust raises instead of being
    silently skipped — a skipped file is an unchecked privacy invariant.
    """


class TelemetryError(ReproError):
    """A problem with the telemetry subsystem (metric type clash on a
    registered name, malformed metrics snapshot document, invalid
    quantile or accuracy parameter)."""


class AuditError(TelemetryError):
    """An audit log failed validation: broken hash chain, sequence gap,
    truncated or corrupted record, wrong format/version marker, or a
    replayed odometer that disagrees with a live ledger.

    Subclasses :class:`TelemetryError` (the audit trail is part of the
    observability layer), so existing telemetry ``except`` clauses keep
    working; audit verification is fail-closed — any doubt about the
    log's integrity raises rather than reporting a partial answer.
    """
