"""The release-mechanism catalog: the six mechanisms a tenant can serve.

The paper's value proposition is a *menu* of release mechanisms —
Algorithm 1 for trees, Algorithm 2's covering for bounded weights, the
Section 4 all-pairs baselines — and the follow-up hub-set work grew
that menu further.  Each mechanism is an object with a ``name``,
data-independent eligibility and noise-scale predictions, and a
``build`` hook producing a
:class:`~repro.serving.synopsis.DistanceSynopsis` from a graph and a
budget.  The catalog is closed: its names are what
:class:`~repro.serving.config.ServingConfig`, the CLI's
``--mechanism`` and the ledger labels use.  Releases that need more
than a graph and a budget are built outside it: an explicit pair
workload by :func:`~repro.serving.synopsis.build_single_pair_synopsis`
(or :func:`~repro.serving.batching.fresh_batch`), and the sharded
service's boundary relay by
:func:`~repro.apsp.hubs.build_hub_structure` over the cut vertices.

Auto-selection (:func:`auto_select_mechanism`) is a catalog-wide
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
choices bit for bit.

Everything here depends only on public quantities, so mechanism choice
itself leaks nothing (the same argument the paper makes for its
topology-dependent algorithm selection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Tuple

from .algorithms.traversal import is_connected
from .apsp.bounded import HubSetBoundedRelease
from .apsp.hubs import HubSetRelease, predicted_hub_scale
from .core.bounded_weight import BoundedWeightRelease
from .core.distance_oracle import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    all_pairs_noise_scale,
)
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
from .graphs.graph import WeightedGraph
from .graphs.tree import RootedTree
from .rng import Rng
from .telemetry import get_telemetry

# NOTE: repro.serving.* is imported lazily inside build() methods —
# repro.serving.service consumes this catalog, so a module-scope
# import here would be circular.

__all__ = [
    "Mechanism",
    "MechanismParams",
    "get_mechanism",
    "available_mechanisms",
    "registered_mechanisms",
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

    Everything here is data-independent — the budget and a declared
    public weight bound — so passing the same params object to
    ``auto_eligible`` / ``predicted_noise_scale`` / ``build`` leaks
    nothing about the private weights.
    """

    #: The ``(eps, delta)`` budget the release will spend.
    budget: PrivacyParams
    #: Public bound ``M`` on edge weights, if declared.
    weight_bound: float | None = None

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
    """Refuse a directed graph (every release answers unordered
    pairs) or a disconnected one."""
    if graph.directed:
        raise GraphError(
            f"{mechanism} release answers unordered pairs and refuses "
            "a directed graph"
        )
    if not is_weakly_connected(CSRGraph.from_graph(graph)):
        raise DisconnectedGraphError(
            f"{mechanism} release requires a connected graph"
        )


class Mechanism:
    """One release mechanism: a named entry in the catalog.

    Subclasses set ``name`` and implement the four hooks.  All hooks
    except :meth:`build` are pure functions of public facts; ``build``
    is the only method that reads private weights or consumes the rng.

    Attributes
    ----------
    name:
        The catalog key (also the CLI's ``--mechanism`` value and the
        label recorded in ledger entries).
    selection_margin:
        Multiplier applied to :meth:`predicted_noise_scale` in the
        auto-selection contest; > 1 for mechanisms whose answers
        compose several released entries (hub relays), so the raw
        per-entry scale understates the answer error.
    """

    name: str = ""
    selection_margin: float = 1.0

    def auto_eligible(
        self, graph: WeightedGraph, params: MechanismParams
    ) -> bool:
        """Whether auto-selection may consider this mechanism: its
        preconditions (topology shape, declared bound, budget shape)
        plus the documented dominance gates (trees defer to Algorithm
        1, the declared-bound regime belongs to the covering families,
        hub variants enter above their crossover sizes).  Public facts
        only."""
        raise NotImplementedError

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
        by (lower wins; ties go to the earlier catalog entry)."""
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


def get_mechanism(name: str) -> Mechanism:
    """Look up a catalog mechanism by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise MechanismError(
            f"unknown mechanism {name!r}; available: "
            f"{', '.join(available_mechanisms())}"
        ) from None


def available_mechanisms() -> Tuple[str, ...]:
    """Names of all catalog mechanisms, sorted."""
    return tuple(sorted(_CATALOG))


def registered_mechanisms() -> Tuple[Mechanism, ...]:
    """All catalog mechanism instances, in contest order."""
    return tuple(_CATALOG.values())


def auto_select_mechanism(
    graph: WeightedGraph,
    budget: PrivacyParams,
    weight_bound: float | None = None,
) -> str:
    """Pick the strongest release mechanism the graph admits.

    A catalog-wide predicted-noise-scale contest: every auto-eligible
    mechanism's margin-adjusted scale competes and the smallest wins
    (ties break by catalog order, so a challenger must strictly
    undercut an incumbent).  Eligibility and prediction depend only on
    public facts, so the choice is itself data-independent.
    """
    telemetry = get_telemetry()
    with telemetry.span("mechanism.select") as span:
        params = MechanismParams(budget=budget, weight_bound=weight_bound)
        candidates = [
            m for m in _CATALOG.values() if m.auto_eligible(graph, params)
        ]
        if not candidates:
            raise MechanismError(
                "no catalog mechanism is auto-eligible for this graph "
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

    def auto_eligible(self, graph, params):
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
    """Shared gates of the declared-weight-bound family: a declared
    bound, a non-tree topology (trees defer to Algorithm 1), and a
    side of the hub-bounded crossover.  A member's prediction prices
    the covering its release class would pick (``release``'s
    ``default_radius``) through its ``_covering_scale``."""

    release: Any = None

    def _family_eligible(self, graph, params):
        return (
            params.weight_bound is not None
            and not graph.directed
            and not _is_tree_topology(graph)
        )

    def predicted_noise_scale(self, graph, params):
        v = graph.num_vertices
        m, eps, delta = params.weight_bound, params.eps, params.delta
        if m is None:
            raise MechanismError(
                f"{self.name} prediction requires a weight_bound"
            )
        k = self.release.default_radius(v, m, eps, delta)
        # Meir–Moon: a connected graph has a k-covering of size
        # <= V/(k+1); the prediction prices that worst case.
        z = max(v // (k + 1), 1)
        return self._covering_scale(z, eps, delta)

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
    release = BoundedWeightRelease

    def auto_eligible(self, graph, params):
        # Road scale defers to hub-bounded.
        return (
            self._family_eligible(graph, params)
            and graph.num_vertices < HUB_BOUNDED_MIN_VERTICES
        )

    def _covering_scale(self, z, eps, delta):
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
    release = HubSetBoundedRelease

    def auto_eligible(self, graph, params):
        return (
            self._family_eligible(graph, params)
            and graph.num_vertices >= HUB_BOUNDED_MIN_VERTICES
        )

    def _covering_scale(self, z, eps, delta):
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

    def _family_eligible(self, graph, params):
        return (
            params.weight_bound is None
            and not graph.directed
            and not _is_tree_topology(graph)
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
        from .serving.synopsis import AllPairsSynopsis

        return AllPairsSynopsis.from_release(
            AllPairsBasicRelease(graph, params.eps, rng)
        )


class AllPairsAdvancedMechanism(_AllPairsFamily):
    """The Section 4 intro baseline under advanced composition
    (Lemma 3.4 inverse); requires ``delta > 0``."""

    name = "all-pairs-advanced"

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
        from .serving.synopsis import AllPairsSynopsis

        return AllPairsSynopsis.from_release(
            AllPairsAdvancedRelease(
                graph, params.eps, params.delta, rng
            )
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


#: The catalog in contest order (also the tie-break): tree first (it
#: dominates where it is eligible), then the bounded family, then the
#: all-pairs families with the baselines ahead of hub-set (a
#: challenger must strictly undercut the incumbent).
_CATALOG = {
    m.name: m
    for m in (
        TreeMechanism(),
        BoundedWeightMechanism(),
        HubBoundedMechanism(),
        AllPairsBasicMechanism(),
        AllPairsAdvancedMechanism(),
        HubSetMechanism(),
    )
}
