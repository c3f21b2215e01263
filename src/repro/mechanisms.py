"""The release-mechanism registry: one catalog, every mechanism.

The paper's value proposition is a *menu* of release mechanisms —
Algorithm 1 for trees, Algorithm 2's covering for bounded weights, the
Section 4 all-pairs baselines — and the follow-up hub-set work grew
that menu further.  Before this module the menu lived as a hard-coded
``if/elif`` ladder inside the serving façade; now it is a registry:
each mechanism is an object with a ``name``, data-independent
applicability and noise-scale predictions, and a ``build`` hook
producing a :class:`~repro.serving.synopsis.DistanceSynopsis`.  New
mechanisms (the ROADMAP's shortcut-graph recursion, debiased hub
estimators, ...) plug in with :func:`register_mechanism` and
immediately become available to :func:`~repro.serving.config.serve`,
the CLI, and auto-selection — no consumer surgery.

Auto-selection (:func:`auto_select_mechanism`) is a registry-wide
contest: every auto-eligible mechanism predicts its per-entry noise
scale from *public* facts (topology, vertex count, declared bound,
budget shape), the prediction is adjusted by the mechanism's
``selection_margin`` (hub answers are minima over relay sums, so their
scale must undercut a baseline's by a documented factor to actually
win), and the smallest adjusted scale takes the epoch.  Eligibility
gates encode the paper's structural dominance rules — Algorithm 1
dominates everything on trees, the covering families own the declared
weight-bound regime, the hub variants enter above their documented
crossover sizes — so the contest reproduces the retired ladder's
choices bit for bit while staying open to new entries.

Everything here depends only on public quantities, so mechanism choice
itself leaks nothing (the same argument the paper makes for its
topology-dependent algorithm selection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .algorithms.traversal import is_connected
from .apsp.bounded import HubSetBoundedRelease, hub_bounded_optimal_k
from .apsp.hubs import HubSetRelease, predicted_hub_scale
from .core.bounded_weight import (
    BoundedWeightRelease,
    bounded_weight_optimal_k_approx,
    bounded_weight_optimal_k_pure,
)
from .core.distance_oracle import all_pairs_noise_scale
from .core.tree_distances import TreeAllPairsRelease
from .dp.composition import composed_noise_scale
from .dp.params import PrivacyParams
from .engine.csr import CSRGraph
from .engine.frontier import is_weakly_connected
from .exceptions import (
    DisconnectedGraphError,
    GraphError,
    MechanismError,
    PrivacyError,
)
from .graphs.graph import Vertex, WeightedGraph
from .graphs.tree import RootedTree
from .rng import Rng
from .telemetry import get_telemetry

# NOTE: repro.serving.* is imported lazily inside build() methods —
# repro.serving.service consumes this registry, so a module-scope
# import here would be circular.

__all__ = [
    "Mechanism",
    "MechanismParams",
    "register_mechanism",
    "get_mechanism",
    "available_mechanisms",
    "registered_mechanisms",
    "standalone_mechanisms",
    "auto_select_mechanism",
    "HUB_MIN_VERTICES",
    "HUB_SELECTION_MARGIN",
    "HUB_BOUNDED_MIN_VERTICES",
]

#: Below this vertex count the hub relay detour dominates whatever the
#: noise accounting saves, so auto-selection never picks hub-set.
HUB_MIN_VERTICES = 128

#: Safety factor on the hub mechanism's predicted noise scale before it
#: may displace an all-pairs baseline: a hub answer is a *min over
#: relay sums* (twice the per-entry noise, plus min-selection bias), so
#: its scale must beat the baseline's by this margin to actually win.
HUB_SELECTION_MARGIN = 4.0

#: Crossover for layering hubs over Algorithm 2's covering: optimal
#: coverings are small at moderate V, so the |Z|^2 table only loses to
#: the hub structure's ~|Z|^{3/2} accounting at road-network scale.
HUB_BOUNDED_MIN_VERTICES = 4096


@dataclass(frozen=True)
class MechanismParams:
    """The public inputs a mechanism builds from.

    Everything here is data-independent — the budget, a declared
    public weight bound, an explicit pair workload (the pairs are the
    *queries*, not the answers), a site subset for the relay builder —
    so passing the same params object to ``applicable`` /
    ``predicted_noise_scale`` / ``build`` leaks nothing about the
    private weights.
    """

    #: The ``(eps, delta)`` budget the release will spend.
    budget: PrivacyParams
    #: Public bound ``M`` on edge weights, if declared.
    weight_bound: float | None = None
    #: Explicit pair workload (``single-pair`` only).
    pairs: Tuple[Tuple[Vertex, Vertex], ...] | None = None
    #: Site subset to build over (``boundary-relay`` only; defaults to
    #: all vertices elsewhere).
    sites: Tuple[Vertex, ...] | None = None

    @property
    def eps(self) -> float:
        """Shorthand for ``budget.eps``."""
        return self.budget.eps

    @property
    def delta(self) -> float:
        """Shorthand for ``budget.delta``."""
        return self.budget.delta


def _is_tree_topology(graph: WeightedGraph) -> bool:
    """Whether the public topology is a connected undirected tree —
    the Algorithm 1 precondition, checked from public facts only."""
    return (
        not graph.directed
        and graph.num_edges == graph.num_vertices - 1
        and is_connected(graph)
    )


def _require_connected(graph: WeightedGraph, mechanism: str) -> None:
    if not is_weakly_connected(CSRGraph.from_graph(graph)):
        raise DisconnectedGraphError(
            f"{mechanism} release requires a connected graph"
        )


class Mechanism:
    """One release mechanism: a named entry in the registry.

    Subclasses set ``name`` and implement the four hooks.  All hooks
    except :meth:`build` are pure functions of public facts; ``build``
    is the only method that reads private weights or consumes the rng.

    Attributes
    ----------
    name:
        The registry key (also the CLI's ``--mechanism`` value and the
        label recorded in ledger entries).
    standalone:
        Whether a :class:`~repro.serving.service.DistanceService` can
        build this mechanism from a graph + budget alone.  ``False``
        for mechanisms needing extra inputs (an explicit pair workload,
        a site subset).
    selection_margin:
        Multiplier applied to :meth:`predicted_noise_scale` in the
        auto-selection contest; > 1 for mechanisms whose answers
        compose several released entries (hub relays), so the raw
        per-entry scale understates the answer error.
    """

    name: str = ""
    standalone: bool = True
    selection_margin: float = 1.0

    def applicable(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> bool:
        """Whether the mechanism's hard preconditions hold (topology
        shape, declared bound, budget shape).  Public facts only."""
        raise NotImplementedError

    def auto_eligible(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> bool:
        """Whether auto-selection may consider this mechanism.

        Stricter than :meth:`applicable`: also encodes the documented
        dominance gates (trees defer to Algorithm 1, the declared-bound
        regime belongs to the covering families, hub variants enter
        above their crossover sizes).  Default: same as applicability.
        """
        return self.applicable(graph, params)

    def predicted_noise_scale(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> float:
        """The per-released-entry Laplace scale this mechanism would
        pay, predicted from public size parameters — what the contest
        compares and what :class:`~repro.serving.estimates.Estimate`
        reports before a build exists.  Always positive."""
        raise NotImplementedError

    def selection_score(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> float:
        """The margin-adjusted scale the auto-selection contest ranks
        by (lower wins; ties go to earlier registration)."""
        return self.selection_margin * self.predicted_noise_scale(
            graph, params
        )

    def validate(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> None:
        """Raise if :meth:`build` would fail, *before* any budget is
        spent or noise drawn.  Checks are public (topology,
        connectivity, the declared bound's pre-noise precondition), so
        a refused build leaks nothing and burns no budget."""
        raise NotImplementedError

    def build(
        self, graph: WeightedGraph, params: MechanismParams, rng: Rng
    ) -> Any:
        """Run the release and return its
        :class:`~repro.serving.synopsis.DistanceSynopsis`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, Mechanism] = {}
#: Registration order — the contest's deterministic tie-break.
_ORDER: list[Mechanism] = []


def register_mechanism(mechanism: Mechanism) -> Mechanism:
    """Register a mechanism instance under its ``name``.

    Follow-up mechanisms (shortcut-graph recursion, debiased hub
    estimators, ...) plug in here; registration order is the
    auto-selection contest's tie-break, so later entries must strictly
    undercut earlier ones to win.
    """
    if not mechanism.name:
        raise MechanismError("mechanism must define a non-empty name")
    if mechanism.name in _REGISTRY:
        raise MechanismError(
            f"mechanism {mechanism.name!r} is already registered"
        )
    _REGISTRY[mechanism.name] = mechanism
    _ORDER.append(mechanism)
    return mechanism


def get_mechanism(name: str) -> Mechanism:
    """Look up a registered mechanism by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MechanismError(
            f"unknown mechanism {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def available_mechanisms() -> Tuple[str, ...]:
    """Names of all registered mechanisms, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_mechanisms() -> Tuple[Mechanism, ...]:
    """All registered mechanism instances, in registration order."""
    return tuple(_ORDER)


def standalone_mechanisms() -> Tuple[str, ...]:
    """Names a :class:`~repro.serving.service.DistanceService` can be
    forced to (graph + budget suffice), in registration order."""
    return tuple(m.name for m in _ORDER if m.standalone)


def auto_select_mechanism(
    graph: WeightedGraph,
    budget: PrivacyParams,
    weight_bound: float | None = None,
) -> str:
    """Pick the strongest release mechanism the graph admits.

    A registry-wide predicted-noise-scale contest: every auto-eligible
    mechanism's margin-adjusted scale competes and the smallest wins
    (ties break by registration order, so a challenger must strictly
    undercut an incumbent).  Eligibility and prediction depend only on
    public facts, so the choice is itself data-independent.
    """
    telemetry = get_telemetry()
    with telemetry.span("mechanism.select") as span:
        params = MechanismParams(budget=budget, weight_bound=weight_bound)
        candidates = [
            m for m in _ORDER if m.auto_eligible(graph, params)
        ]
        if not candidates:
            raise MechanismError(
                "no registered mechanism is auto-eligible for this graph "
                "and budget"
            )
        winner = min(
            candidates, key=lambda m: m.selection_score(graph, params)
        )
        span.set_attribute("winner", winner.name)
        span.set_attribute("candidates", len(candidates))
        telemetry.emit(
            "mechanism.select",
            winner=winner.name,
            candidates=[m.name for m in candidates],
        )
    telemetry.registry.counter(
        "mechanism.selected", mechanism=winner.name
    ).inc()
    return winner.name


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------


class TreeMechanism(Mechanism):
    """Algorithm 1 + Theorem 4.2: all-pairs distances on a tree.

    Error ``O(log^1.5 V / eps)`` with zero detour — strictly the
    paper's best mechanism when the topology admits it, which is why
    every other mechanism's eligibility gate defers to it on trees.
    """

    name = "tree"

    def applicable(self, graph, params):
        return _is_tree_topology(graph)

    def predicted_noise_scale(self, graph, params):
        # The release noises one value per level of the centroid
        # recursion, whose depth is <= ceil(log2 V); the proxy is that
        # bound (exact depth would need building the recursion plan).
        n = graph.num_vertices
        depth = max(math.ceil(math.log2(n)), 1) if n >= 2 else 1
        return depth / params.eps

    def validate(self, graph, params):
        # Topology-only validation (raises NotATreeError early).
        RootedTree(graph, next(iter(graph.vertices())))

    def build(self, graph, params, rng):
        from .serving.synopsis import TreeSynopsis

        rooted = RootedTree(graph, next(iter(graph.vertices())))
        release = TreeAllPairsRelease(rooted, params.eps, rng)
        return TreeSynopsis.from_release(release)


class _BoundedFamily(Mechanism):
    """Shared gates of the declared-weight-bound family."""

    def applicable(self, graph, params):
        return params.weight_bound is not None

    def validate(self, graph, params):
        if params.weight_bound is None:
            raise GraphError(
                f"{self.name} mechanism requires a weight_bound"
            )
        # Mirrors the release's own pre-noise precondition, just
        # earlier (before the ledger spend).
        graph.check_bounded(params.weight_bound)
        _require_connected(graph, self.name)


class BoundedWeightMechanism(_BoundedFamily):
    """Algorithm 2's covering release (Section 4.2)."""

    name = "bounded-weight"

    def auto_eligible(self, graph, params):
        # Trees defer to Algorithm 1; road scale defers to hub-bounded.
        return (
            self.applicable(graph, params)
            and not _is_tree_topology(graph)
            and graph.num_vertices < HUB_BOUNDED_MIN_VERTICES
        )

    def predicted_noise_scale(self, graph, params):
        v = graph.num_vertices
        m, eps, delta = params.weight_bound, params.eps, params.delta
        if m is None:
            raise MechanismError(
                "bounded-weight prediction requires a weight_bound"
            )
        if delta > 0:
            k = bounded_weight_optimal_k_approx(v, m, eps)
        else:
            k = bounded_weight_optimal_k_pure(v, m, eps)
        k = min(k, max(v - 1, 1))
        # Meir–Moon: a connected graph has a k-covering of size
        # <= V/(k+1); the prediction prices that worst case.
        z = max(v // (k + 1), 1)
        return composed_noise_scale(z * (z - 1) // 2, eps, delta)

    def build(self, graph, params, rng):
        from .serving.synopsis import BoundedWeightSynopsis

        release = BoundedWeightRelease(
            graph,
            params.weight_bound,
            params.eps,
            rng,
            delta=params.delta,
        )
        return BoundedWeightSynopsis.from_release(release)


class HubBoundedMechanism(_BoundedFamily):
    """The hub structure layered over Algorithm 2's covering
    (:class:`repro.apsp.bounded.HubSetBoundedRelease`)."""

    name = "hub-bounded"

    def auto_eligible(self, graph, params):
        return (
            self.applicable(graph, params)
            and not _is_tree_topology(graph)
            and graph.num_vertices >= HUB_BOUNDED_MIN_VERTICES
        )

    def predicted_noise_scale(self, graph, params):
        v = graph.num_vertices
        m, eps, delta = params.weight_bound, params.eps, params.delta
        if m is None:
            raise MechanismError(
                "hub-bounded prediction requires a weight_bound"
            )
        k = hub_bounded_optimal_k(v, m, eps, delta)
        z = max(v // (k + 1), 1)
        return predicted_hub_scale(z, eps, delta)

    def build(self, graph, params, rng):
        from .serving.synopsis import HubBoundedSynopsis

        release = HubSetBoundedRelease(
            graph,
            params.weight_bound,
            params.eps,
            rng,
            delta=params.delta,
        )
        return HubBoundedSynopsis.from_release(release)


class _AllPairsFamily(Mechanism):
    """Shared gates of the unbounded all-pairs family: non-tree
    topology (trees defer to Algorithm 1) and no declared bound (that
    regime belongs to the covering families)."""

    def applicable(self, graph, params):
        return True

    def _family_eligible(self, graph, params):
        return params.weight_bound is None and not _is_tree_topology(
            graph
        )

    def validate(self, graph, params):
        _require_connected(graph, self.name)


class AllPairsBasicMechanism(_AllPairsFamily):
    """The Section 4 intro baseline under basic composition:
    ``Lap(P/eps)`` over the ``P = V(V-1)/2`` unordered pairs."""

    name = "all-pairs-basic"

    def auto_eligible(self, graph, params):
        # Pure budgets only; an approx budget uses the advanced
        # accounting instead.
        return self._family_eligible(graph, params) and params.delta == 0

    def predicted_noise_scale(self, graph, params):
        return all_pairs_noise_scale(graph.num_vertices, params.eps)

    def build(self, graph, params, rng):
        from .serving.synopsis import build_all_pairs_synopsis

        return build_all_pairs_synopsis(graph, params.eps, rng)


class AllPairsAdvancedMechanism(_AllPairsFamily):
    """The Section 4 intro baseline under advanced composition
    (Lemma 3.4 inverse); requires ``delta > 0``."""

    name = "all-pairs-advanced"

    def applicable(self, graph, params):
        return params.delta > 0

    def auto_eligible(self, graph, params):
        return self._family_eligible(graph, params) and params.delta > 0

    def predicted_noise_scale(self, graph, params):
        if params.delta <= 0:
            raise MechanismError(
                "all-pairs-advanced requires a delta > 0 budget"
            )
        return all_pairs_noise_scale(
            graph.num_vertices, params.eps, params.delta
        )

    def validate(self, graph, params):
        if params.delta <= 0:
            raise PrivacyError(
                "all-pairs-advanced requires a delta > 0 budget"
            )
        _require_connected(graph, self.name)

    def build(self, graph, params, rng):
        from .serving.synopsis import build_all_pairs_synopsis

        return build_all_pairs_synopsis(
            graph, params.eps, rng, delta=params.delta
        )


class HubSetMechanism(_AllPairsFamily):
    """The improved hub-set release of :mod:`repro.apsp`: ~V^{3/2}
    released entries instead of V^2, entering the contest above
    :data:`HUB_MIN_VERTICES` with :data:`HUB_SELECTION_MARGIN`."""

    name = "hub-set"
    selection_margin = HUB_SELECTION_MARGIN

    def auto_eligible(self, graph, params):
        return (
            self._family_eligible(graph, params)
            and graph.num_vertices >= HUB_MIN_VERTICES
        )

    def predicted_noise_scale(self, graph, params):
        return predicted_hub_scale(
            graph.num_vertices, params.eps, params.delta
        )

    def build(self, graph, params, rng):
        from .serving.synopsis import HubSetSynopsis

        release = HubSetRelease(
            graph,
            params.eps,
            rng,
            delta=params.delta,
        )
        return HubSetSynopsis.from_release(release)


class SinglePairMechanism(Mechanism):
    """A fixed pair workload released as one vectorized ``Lap(Q/eps)``
    draw (Section 1.2's opener, batched).  Needs an explicit workload,
    so it never enters auto-selection and cannot back a standalone
    service."""

    name = "single-pair"
    standalone = False

    def applicable(self, graph, params):
        return params.pairs is not None

    def auto_eligible(self, graph, params):
        return False

    def predicted_noise_scale(self, graph, params):
        # Duplicate pairs are deduplicated at build time, so this is an
        # upper bound on the actual scale.
        q = len(params.pairs) if params.pairs else 1
        return max(q, 1) / params.eps

    def validate(self, graph, params):
        if params.pairs is None:
            raise GraphError(
                "single-pair mechanism requires an explicit pairs "
                "workload"
            )

    def build(self, graph, params, rng):
        from .serving.synopsis import build_single_pair_synopsis

        return build_single_pair_synopsis(
            graph, params.pairs, params.eps, rng
        )


class BoundaryRelayMechanism(Mechanism):
    """The sharded-serving relay builder: a hub structure over an
    explicit site subset (the shard boundary), wrapped as a
    :class:`~repro.serving.synopsis.HubSetSynopsis` answering
    site-to-site distances.  Distances may traverse the whole graph
    (the relay reads every edge), which is why the sharded budget
    split charges it separately."""

    name = "boundary-relay"
    standalone = False

    def applicable(self, graph, params):
        return bool(params.sites)

    def auto_eligible(self, graph, params):
        return False

    def predicted_noise_scale(self, graph, params):
        m = len(params.sites) if params.sites else graph.num_vertices
        return predicted_hub_scale(m, params.eps, params.delta)

    def validate(self, graph, params):
        if not params.sites:
            raise GraphError(
                "boundary-relay mechanism requires a non-empty sites "
                "subset"
            )

    def build(self, graph, params, rng):
        from .apsp.hubs import (
            build_hub_structure,
            default_ball_size,
            default_hub_count,
        )
        from .engine.csr import CSRGraph
        from .serving.synopsis import HubSetSynopsis

        sites = tuple(params.sites)
        m = len(sites)
        csr = CSRGraph.from_graph(graph)
        structure = build_hub_structure(
            csr,
            csr.indices_of(sites),
            default_hub_count(m),
            default_ball_size(m),
            params.eps,
            params.delta,
            rng,
        )
        return HubSetSynopsis(params.budget, sites, structure)

# The canonical registration order (also the contest's tie-break):
# tree first (it dominates when applicable), then the bounded family,
# then the all-pairs families with the baselines ahead of hub-set (a
# challenger must strictly undercut the incumbent), then the
# workload/site mechanisms that never auto-select.
register_mechanism(TreeMechanism())
register_mechanism(BoundedWeightMechanism())
register_mechanism(HubBoundedMechanism())
register_mechanism(AllPairsBasicMechanism())
register_mechanism(AllPairsAdvancedMechanism())
register_mechanism(HubSetMechanism())
register_mechanism(SinglePairMechanism())
register_mechanism(BoundaryRelayMechanism())
