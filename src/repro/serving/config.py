"""Declarative serving configuration: one document, one factory.

A :class:`ServingConfig` captures a whole deployment — mechanism,
budget split, epoch policy, shard plan knobs, cache bound —
as an immutable, JSON-round-trippable document, and :func:`serve`
turns ``(graph, config, rng)`` into a running
:class:`~repro.serving.service.DistanceService`.

There is one serving front: whether the answers come from one
synopsis or from regional tenants stitched by a boundary relay is the
``shards`` field, not a code path, so the CLI, the traffic replay,
and the benchmarks consume exactly one interface (``query``,
``query_batch``, ``estimate``, ``estimate_batch``, ``refresh``,
``refresh_shard``, plus the ``mechanism`` / ``stats`` / ``ledger`` /
``epoch`` surface).

The config is public data — mechanism names, budgets, seeds, size
knobs — so config documents can be shipped, versioned, and diffed
like any deployment manifest without privacy implications.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .. import documents
from ..dp.params import PrivacyParams
from ..exceptions import GraphError, PrivacyError
from ..graphs.graph import WeightedGraph
from ..mechanisms import get_mechanism
from ..rng import Rng
from ..telemetry import (
    NULL_TELEMETRY,
    AuditLog,
    EventLog,
    FlightRecorder,
    PhaseProfiler,
    Telemetry,
    get_telemetry,
)
from .ledger import BudgetLedger
from .service import DistanceService
from .sharding import (
    DEFAULT_RELAY_FRACTION,
    ShardPlan,
    ShardedDistanceService,
)

__all__ = [
    "ServingConfig",
    "serve",
    "EPOCH_POLICIES",
    "CONFIG_FORMAT",
]

CONFIG_FORMAT = "repro-serving-config"
#: Version 2 has no ``backend`` field.  Every version-1 document that
#: ``to_json`` wrote carries one, so version 1 is refused as a whole —
#: hand-written version-1 documents without it included — rather than
#: read with a field that would select nothing.
_CONFIG_VERSION = 2

#: How a server's budget behaves across :meth:`DistanceService.refresh`:
#: ``"rotate"`` treats every refresh as a new data epoch (the private
#: ledger rotates and budgets reset — fresh weights are a new
#: database); ``"fixed"`` pins the ledger epoch, so refreshes re-spend
#: from the remaining epoch budget and fail closed when it runs out
#: (the contract for rebuilding against the *same* database).
EPOCH_POLICIES = ("rotate", "fixed")


@dataclass(frozen=True)
class ServingConfig:
    """A declarative description of one distance-serving deployment.

    Every field is public (mechanism names, budgets, seeds, size
    knobs), immutable, and JSON-serializable; ``ServingConfig`` is the
    single argument — besides the graph and the rng — that
    :func:`serve` needs.

    Attributes
    ----------
    mechanism:
        A catalog mechanism name, or ``"auto"`` for the catalog's
        predicted-noise-scale contest.
    eps, delta:
        The per-epoch ``(eps, delta)`` budget.  With ``shards >= 2``
        the budget splits ``(1 - relay_fraction)`` to every shard
        tenant and ``relay_fraction`` to the boundary relay (parallel
        composition over disjoint intra-shard edge sets).
    weight_bound:
        Public bound ``M`` on edge weights, if declared.
    epoch_policy:
        ``"rotate"`` (default) or ``"fixed"`` — see
        :data:`EPOCH_POLICIES`.
    shards:
        Regional tenants to partition into (1 = unsharded).
    relay_fraction:
        Boundary-relay share of the epoch budget (multi-shard only).
    partition_seed:
        Seed for the topology-only partitioner.
    cache_size:
        LRU bound on the answer cache (``None`` = unbounded).
    tenant:
        Ledger tenant name (``None`` = each service's default).
    telemetry:
        Whether the server records metrics and spans (default on).
        ``False`` forces the null bundle regardless of what
        :func:`serve` is passed — the config is the deployment's
        single source of truth.  Purely observational either way:
        answers are bit-identical on or off.
    audit_log:
        Path of a JSONL :class:`~repro.telemetry.AuditLog` the server
        hash-chains the :data:`~repro.telemetry.AUDITED_KINDS` to —
        budget spends, ledger rotations, synopsis and relay builds,
        epoch/shard refreshes (``None`` = no audit trail).  Batch
        serves are post-processing and are not chained.  Independent
        of ``telemetry``: a deployment can audit with metrics off.
        Observational like the rest of the bundle — answers are
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
        deltas to every span phase.  Requires ``telemetry`` on (a
        disabled bundle opens no spans to attribute).
    flight_recorder:
        Attach a :class:`~repro.telemetry.FlightRecorder` capturing
        exemplar records of slow queries into a bounded ring buffer.
    flight_threshold_seconds:
        Fixed slow-query threshold the recorder uses until its
        adaptive per-route p99 warms up (``None`` = adaptive only;
        implies ``flight_recorder`` when set).  All three knobs are
        observational like the rest of the bundle — answers are
        bit-identical on or off.
    """

    mechanism: str = "auto"
    eps: float = 1.0
    delta: float = 0.0
    weight_bound: float | None = None
    epoch_policy: str = "rotate"
    shards: int = 1
    relay_fraction: float = DEFAULT_RELAY_FRACTION
    partition_seed: int = 0
    cache_size: int | None = None
    tenant: str | None = None
    telemetry: bool = True
    audit_log: str | None = None
    event_log: str | None = None
    profile: bool = False
    flight_recorder: bool = False
    flight_threshold_seconds: float | None = None

    def __post_init__(self) -> None:
        PrivacyParams(self.eps, self.delta)  # validates the budget
        if self.mechanism != "auto":
            get_mechanism(self.mechanism)  # raises on unknown names
        if self.epoch_policy not in EPOCH_POLICIES:
            raise GraphError(
                f"unknown epoch policy {self.epoch_policy!r}; expected "
                f"one of {', '.join(EPOCH_POLICIES)}"
            )
        if self.shards < 1:
            raise GraphError(
                f"need at least 1 shard, got {self.shards}"
            )
        if not 0.0 < self.relay_fraction < 1.0:
            raise PrivacyError(
                f"relay_fraction must be in (0, 1), got "
                f"{self.relay_fraction}"
            )
        if self.cache_size is not None and self.cache_size < 1:
            raise GraphError(
                f"cache size must be at least 1, got {self.cache_size}"
            )
        if (
            self.flight_threshold_seconds is not None
            and self.flight_threshold_seconds <= 0.0
        ):
            raise GraphError(
                f"flight threshold must be positive, got "
                f"{self.flight_threshold_seconds}"
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

        Missing fields take their defaults (forward compatibility for
        configs written before a knob existed); unknown fields are
        rejected (they are typos, not extensions).
        """
        document = documents.parse(
            text, CONFIG_FORMAT, _CONFIG_VERSION, GraphError, "serving config"
        )
        return documents.construct(
            cls, documents.body(document), GraphError, "serving config"
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
        never rotated by the server, regardless of the epoch policy —
        its owner decides when the epoch turns).  Defaults to a
        private ledger under ``config.epoch_policy``.
    plan:
        Use an existing :class:`~repro.serving.sharding.ShardPlan`
        instead of partitioning (multi-shard configs only).
    telemetry:
        Inject a :class:`~repro.telemetry.Telemetry` bundle for the
        server to record into; ``None`` captures the process's
        current bundle.  ``config.telemetry = False`` wins — a
        deployment that declares itself uninstrumented stays that
        way.
    """
    mechanism = None if config.mechanism == "auto" else config.mechanism
    if not config.telemetry:
        telemetry = NULL_TELEMETRY
    elif telemetry is None:
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
    if config.profile and not telemetry.profiler.enabled:
        telemetry = telemetry.with_profiler(PhaseProfiler())
    if (
        config.flight_recorder
        or config.flight_threshold_seconds is not None
    ) and not telemetry.flight.enabled:
        telemetry = telemetry.with_flight(
            FlightRecorder(
                threshold_seconds=config.flight_threshold_seconds
            )
        )
    if ledger is None and config.epoch_policy == "fixed":
        # A "fixed" policy pins the epoch: the server gets a ledger it
        # does not own, so refreshes re-spend from the remaining epoch
        # budget (failing closed) instead of rotating.
        ledger = BudgetLedger(config.budget)
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
        partition_seed=config.partition_seed,
        relay_fraction=config.relay_fraction,
    )
    if config.tenant is not None:
        options["tenant"] = config.tenant
    sharded = config.shards > 1 or plan is not None
    server = ShardedDistanceService if sharded else DistanceService
    return server(graph, config.budget, rng, **options)
