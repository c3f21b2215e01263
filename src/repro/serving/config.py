"""Declarative serving configuration: one document, one factory.

A :class:`ServingConfig` captures a whole deployment — mechanism,
budget, weight bound, shard count, cache bound, tenant name and
journals — as an immutable, JSON-round-trippable document, and
:func:`serve` turns ``(graph, config, rng)`` into a running
:class:`~repro.serving.service.DistanceService`.

There is one serving front: whether the answers come from one
synopsis or from regional tenants stitched by a boundary relay is the
``shards`` field, not a code path, so the CLI, the traffic replay,
and the benchmarks consume exactly one interface (``query``,
``query_batch``, ``estimate``, ``estimate_batch``, ``refresh``,
``refresh_shard``, plus the ``mechanism`` / ``stats`` / ``ledger`` /
``epoch`` surface).

The config holds only what a deployment sets.  The rest is reached
through :func:`serve`'s own parameters: a ledger the server does not
rotate, so that refreshes re-spend the epoch budget, is
``ledger=BudgetLedger(config.budget)``; a flight recorder or any other
instrument is an injected ``telemetry=`` bundle; and no metrics or
spans is ``telemetry=NULL_TELEMETRY``.

The config is public data — mechanism names, budgets, size knobs,
paths — so config documents can be shipped, versioned, and diffed
like any deployment manifest without privacy implications.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .. import documents
from ..dp.params import PrivacyParams
from ..exceptions import GraphError
from ..graphs.graph import WeightedGraph
from ..mechanisms import get_mechanism
from ..rng import Rng
from ..telemetry import (
    AuditLog,
    EventLog,
    PhaseProfiler,
    Telemetry,
    get_telemetry,
)
from .ledger import BudgetLedger
from .service import DistanceService, _check_deployment
from .sharding import ShardPlan, ShardedDistanceService

__all__ = [
    "ServingConfig",
    "serve",
    "CONFIG_FORMAT",
]

CONFIG_FORMAT = "repro-serving-config"
#: Version 3 has ten fields.  Version 2 also carried six knobs (an
#: epoch policy, the relay's budget share, a partition seed, a
#: telemetry switch and two flight-recorder settings) and version 1 an
#: engine backend; both are refused by version as a whole rather than
#: read with fields that would select nothing.
_CONFIG_VERSION = 3
#: Every field's type, checked whether a config comes from code or
#: from a document; a boolean is never read as a number.
_FIELD_TYPES: documents.Keys = {
    "mechanism": str,
    "eps": documents.NUMBER,
    "delta": documents.NUMBER,
    "weight_bound": (documents.NUMBER, type(None)),
    "shards": int,
    "cache_size": (int, type(None)),
    "tenant": (str, type(None)),
    "audit_log": (str, type(None)),
    "event_log": (str, type(None)),
    "profile": bool,
}


@dataclass(frozen=True)
class ServingConfig:
    """A declarative description of one distance-serving deployment.

    Every field is public (mechanism names, budgets, size knobs,
    paths), immutable, and JSON-serializable; ``ServingConfig`` is the
    single argument — besides the graph and the rng — that
    :func:`serve` needs.

    Attributes
    ----------
    mechanism:
        A catalog mechanism name, or ``"auto"`` for the catalog's
        predicted-noise-scale contest.
    eps, delta:
        The per-epoch ``(eps, delta)`` budget.  With ``shards >= 2``
        the budget splits ``1 - RELAY_FRACTION`` to every shard
        tenant and :data:`~repro.serving.sharding.RELAY_FRACTION` to
        the boundary relay (parallel composition over disjoint
        intra-shard edge sets).
    weight_bound:
        Public bound ``M`` on edge weights, if declared: a positive
        finite number.
    shards:
        Regional tenants to partition into (1 = unsharded).  Both are
        checked as :class:`~repro.serving.service.DistanceService`
        checks them.
    cache_size:
        LRU bound on the answer cache (``None`` = unbounded).
    tenant:
        Ledger tenant name (``None`` = each service's default).
    audit_log:
        Path of a JSONL :class:`~repro.telemetry.AuditLog` the server
        hash-chains the :data:`~repro.telemetry.AUDITED_KINDS` to —
        budget spends, ledger rotations, synopsis and relay builds,
        epoch/shard refreshes (``None`` = no audit trail).  Batch
        serves are post-processing and are not chained.  Attached
        even to the null bundle: a deployment can audit with metrics
        off.  Observational like the rest of the bundle — answers are
        bit-identical with auditing on, off, or resumed.
    event_log:
        Path of a JSONL :class:`~repro.telemetry.EventLog` the server
        emits every lifecycle event to — service start, mechanism
        selections, budget spends, synopsis and relay builds, ledger
        rotations, epoch/shard refreshes, batch serves — each carrying
        the enclosing span's ids (``None`` = no event log).
    profile:
        Attach a :class:`~repro.telemetry.PhaseProfiler` to the
        server's tracer, attributing wall/CPU time and allocation
        deltas to every span phase.  Ignored on a disabled bundle,
        which opens no spans to attribute.  Observational: answers
        are bit-identical on or off.
    """

    mechanism: str = "auto"
    eps: float = 1.0
    delta: float = 0.0
    weight_bound: float | None = None
    shards: int = 1
    cache_size: int | None = None
    tenant: str | None = None
    audit_log: str | None = None
    event_log: str | None = None
    profile: bool = False

    def __post_init__(self) -> None:
        documents.require(
            vars(self), GraphError, "serving config", _FIELD_TYPES
        )
        PrivacyParams(self.eps, self.delta)  # validates the budget
        if self.mechanism != "auto":
            get_mechanism(self.mechanism)  # raises on unknown names
        _check_deployment(self.weight_bound, self.shards)
        if self.cache_size is not None and self.cache_size < 1:
            raise GraphError(
                f"cache size must be at least 1, got {self.cache_size}"
            )

    @property
    def budget(self) -> PrivacyParams:
        """The per-epoch budget as :class:`~repro.dp.params.PrivacyParams`."""
        return PrivacyParams(self.eps, self.delta)

    def with_overrides(self, **changes: object) -> "ServingConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (all fields are public deployment data)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON config document."""
        return json.dumps(
            documents.new(CONFIG_FORMAT, _CONFIG_VERSION, **asdict(self))
        )

    @classmethod
    def from_json(cls, text: str) -> "ServingConfig":
        """Restore a config serialized by :meth:`to_json`.

        A DP budget is never defaulted: the document must state a
        numeric ``eps`` (the dataclass default is for callers who
        wrote the config in code).  Every other missing field takes
        its default; unknown fields are rejected (they are typos, not
        extensions).
        """
        document = documents.parse(
            text, CONFIG_FORMAT, _CONFIG_VERSION, GraphError, "serving config"
        )
        return documents.construct(
            cls,
            documents.body(document),
            GraphError,
            "serving config",
            keys={"eps": documents.NUMBER},
        )

    def __str__(self) -> str:
        label = self.mechanism
        if self.shards > 1:
            label = f"{label} x{self.shards} shards"
        return f"ServingConfig({label}, {self.budget})"


def serve(
    graph: WeightedGraph,
    config: ServingConfig,
    rng: Rng,
    ledger: BudgetLedger | None = None,
    plan: ShardPlan | None = None,
    telemetry: Telemetry | None = None,
) -> DistanceService:
    """Stand up a distance server described by a :class:`ServingConfig`.

    The one construction path for every consumer (CLI, traffic
    replay, benchmarks): returns a
    :class:`~repro.serving.service.DistanceService` for
    ``config.shards == 1`` and its
    :class:`~repro.serving.sharding.ShardedDistanceService` name
    (the sharded default tenant) for more shards or an explicit
    plan.  With the same graph, budget, and rng the returned server
    answers bit-for-bit identically to constructing the class
    directly, so configs are a pure convenience layer over the seeded
    reproducibility story.

    Parameters
    ----------
    graph:
        Public topology + the current epoch's private weights.
    config:
        The deployment description.
    rng:
        Noise source for the releases.
    ledger:
        Share a budget ledger with other products (a shared ledger is
        never rotated by the server — its owner decides when the
        epoch turns, so ``BudgetLedger(config.budget)`` makes
        refreshes re-spend the epoch budget and fail closed once it
        is spent).  Defaults to a private ledger that every refresh
        rotates.
    plan:
        Use an existing :class:`~repro.serving.sharding.ShardPlan`
        instead of partitioning (multi-shard configs only).
    telemetry:
        Inject a :class:`~repro.telemetry.Telemetry` bundle for the
        server to record into; ``None`` captures the process's
        current bundle, and :data:`~repro.telemetry.NULL_TELEMETRY`
        records no metrics or spans (the journals the config names
        are still written).
    """
    mechanism = None if config.mechanism == "auto" else config.mechanism
    if telemetry is None:
        telemetry = get_telemetry()
    if config.audit_log is not None and not telemetry.audit.enabled:
        # Auditing is orthogonal to metrics: attach the log even to the
        # null bundle.  An already-attached audit (an injected bundle)
        # wins — the caller is aggregating several servers into one
        # trail.
        telemetry = telemetry.with_audit(AuditLog(config.audit_log))
    if config.event_log is not None and not telemetry.log.enabled:
        # Same aggregation rule as audit: an injected event log wins.
        telemetry = telemetry.with_log(EventLog(config.event_log))
    if config.profile and telemetry.enabled and not telemetry.profiler.enabled:
        # A disabled bundle opens no spans: a profiler there would
        # attribute nothing yet send every query down the span path.
        telemetry = telemetry.with_profiler(PhaseProfiler())
    options = dict(
        weight_bound=config.weight_bound,
        mechanism=mechanism,
        ledger=ledger,
        cache_size=config.cache_size,
        telemetry=telemetry,
        # With an explicit plan a multi-shard config still passes its
        # count through, so a config/plan disagreement raises instead
        # of silently trusting the plan; the default shards=1 means
        # "whatever the plan says".
        shards=config.shards if config.shards > 1 else None,
        plan=plan,
    )
    if config.tenant is not None:
        options["tenant"] = config.tenant
    sharded = config.shards > 1 or plan is not None
    server = ShardedDistanceService if sharded else DistanceService
    return server(graph, config.budget, rng, **options)
