"""Regional tenants and the shard router that stitches them together.

:func:`partition_graph` splits the public topology into ``k``
connected shards (data-independent) and returns the split as a
:class:`ShardPlan`; a :class:`_Tenant` is what one shard needs to
serve; :class:`_ShardRouter` is the cache-miss path of a
:class:`~repro.serving.service.DistanceService` with two or more
tenants.  :mod:`repro.serving.sharding` explains the routing and the
privacy accounting.

The router owns the routed answer (``distance``) and its scale
(``noise_scale_for``): the owning synopsis's, or the relay chain's.

A plan is its assignment, vertex -> shard.  The router is the one
place a plan meets the graph (the service's own copy, whose vertex
and edge order never changes): it derives the cut edges and the
boundary (the relay sites) once.  It checks nothing a partition
already guarantees: :func:`partition_graph` refuses a disconnected
graph, and region growing keeps every shard connected, so a connected
graph split into two or more shards always cuts an edge and the relay
always has sites.  None of this reads a weight.  The router's cut,
edge classes and site tables are array code over the compiled
edge-endpoint arrays (:attr:`~repro.engine.csr.CSRGraph.edge_endpoints`);
only region growing walks vertices one at a time, over Python
adjacency lists.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..apsp.hubs import HubStructure
from ..engine.csr import CSRGraph
from ..engine.frontier import is_weakly_connected
from ..exceptions import (
    DisconnectedGraphError,
    GraphError,
    PrivacyError,
    VertexNotFoundError,
)
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng
from .synopsis import DistanceSynopsis

__all__ = [
    "ShardPlan",
    "partition_graph",
    "RELAY_FRACTION",
]

#: Fraction of the epoch budget spent on the boundary-hub relay table
#: when the plan has two or more shards; the rest goes to every shard
#: tenant (parallel composition over disjoint intra-shard edge sets).
RELAY_FRACTION = 0.5


class ShardPlan:
    """A topology-only sharding of a graph's vertex set.

    The plan is its assignment — the seeded partitioner's decision,
    vertex -> shard — and nothing derived from it: the boundary and
    cut edges are a function of the graph and the assignment, and the
    shard router derives them where it serves the plan.  The plan is
    data-independent and safe to publish.

    Parameters
    ----------
    num_shards:
        How many shards the assignment uses (ids ``0..num_shards-1``).
    assignment:
        Vertex -> shard id, covering every vertex; each shard must be
        non-empty.
    """

    def __init__(
        self, num_shards: int, assignment: Mapping[Vertex, int]
    ) -> None:
        if num_shards < 1:
            raise GraphError(f"need at least 1 shard, got {num_shards}")
        self._num_shards = int(num_shards)
        self._assignment: Dict[Vertex, int] = dict(assignment)
        members: List[List[Vertex]] = [[] for _ in range(self._num_shards)]
        for vertex, shard in self._assignment.items():
            if not 0 <= shard < self._num_shards:
                raise GraphError(
                    f"vertex {vertex!r} assigned to shard {shard}, "
                    f"expected [0, {self._num_shards})"
                )
            members[shard].append(vertex)
        for shard, shard_members in enumerate(members):
            if not shard_members:
                raise GraphError(f"shard {shard} has no vertices")
        self._members = [tuple(m) for m in members]

    @property
    def num_shards(self) -> int:
        """How many shards the plan defines."""
        return self._num_shards

    def shard_of(self, vertex: Vertex) -> int:
        """The shard owning a vertex."""
        try:
            return self._assignment[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def members(self, shard: int) -> Tuple[Vertex, ...]:
        """The vertices of one shard, in graph insertion order."""
        if not 0 <= shard < self._num_shards:
            raise GraphError(
                f"shard id {shard} out of range [0, {self._num_shards})"
            )
        return self._members[shard]

    def shard_sizes(self) -> List[int]:
        """Vertex count per shard."""
        return [len(m) for m in self._members]

    def assignment(self) -> Dict[Vertex, int]:
        """The full vertex -> shard mapping (a copy)."""
        return dict(self._assignment)

    def __repr__(self) -> str:
        return (
            f"ShardPlan(shards={self._num_shards}, "
            f"sizes={self.shard_sizes()})"
        )


def partition_graph(
    graph: WeightedGraph, shards: int, seed: int = 0
) -> ShardPlan:
    """Partition a connected graph into balanced, connected shards.

    Seeded BFS region growing: ``shards`` seed vertices are sampled
    uniformly (from ``Rng(seed)`` — never from a service rng, so the
    partition depends only on the public topology and the seed), then
    the open regions grow one vertex each in turn, in shard order; a
    region closes when it has no unassigned neighbour left.  Taking
    turns is the smallest-region-first rule with ties to the lower
    shard id, because the open regions' sizes never differ by more
    than one.  Each region grows only through adjacent vertices —
    along arcs in both directions on a directed graph — so every
    shard induces a (weakly) connected subgraph, and the sizes stay
    within a vertex of balanced wherever the topology allows.
    """
    if shards < 1:
        raise GraphError(f"need at least 1 shard, got {shards}")
    if shards > graph.num_vertices:
        raise GraphError(
            f"cannot split {graph.num_vertices} vertices into "
            f"{shards} shards"
        )
    csr = CSRGraph.from_graph(graph)
    if not is_weakly_connected(csr):
        raise DisconnectedGraphError(
            "sharded serving requires a connected graph"
        )
    n = csr.n
    adjacency = _adjacency_lists(csr.indptr, csr.indices)
    if csr.directed:
        in_indptr, in_tails, _ = csr.incoming()
        adjacency = [
            out + into
            for out, into in zip(
                adjacency, _adjacency_lists(in_indptr, in_tails)
            )
        ]
    rng = Rng(seed)
    shard_of = [-1] * n
    frontiers: List[deque] = []
    for shard, seed_vertex in enumerate(rng.sample(range(n), shards)):
        shard_of[seed_vertex] = shard
        frontiers.append(deque(adjacency[seed_vertex]))
    open_shards = list(range(shards))
    assigned = shards
    while assigned < n:
        if not open_shards:
            raise DisconnectedGraphError(
                "region growing stranded unassigned vertices"
            )
        still_open = []
        for shard in open_shards:
            frontier = frontiers[shard]
            while frontier:
                v = frontier.popleft()
                if shard_of[v] == -1:
                    shard_of[v] = shard
                    assigned += 1
                    frontier.extend(adjacency[v])
                    still_open.append(shard)
                    break
            if assigned == n:
                break
        open_shards = still_open
    return ShardPlan(shards, dict(zip(csr.vertices, shard_of)))


def _adjacency_lists(
    indptr: np.ndarray, heads: np.ndarray
) -> List[List[int]]:
    """Per vertex, its CSR row as a Python list of vertex indices."""
    flat, bounds = heads.tolist(), indptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class _Tenant:
    """What one shard needs to serve: its graph, its current synopsis
    (``None`` while its rebuild is pending or after it failed), the
    mechanism that built it, and its ledger tenant name (its budget
    account).  Serving state — cache, counters, latency — belongs to
    the front."""

    __slots__ = ("name", "graph", "synopsis", "mechanism")

    def __init__(self, name: str, graph: WeightedGraph) -> None:
        self.name = name
        self.graph = graph
        self.synopsis: DistanceSynopsis | None = None
        self.mechanism = ""

    def released(self) -> DistanceSynopsis:
        """The current epoch's synopsis; refuses (fails closed) when
        the last rebuild failed."""
        if self.synopsis is None:
            raise PrivacyError(
                "no synopsis for the current epoch (the last refresh "
                "failed); call refresh() again before querying"
            )
        return self.synopsis


class _ShardRouter:
    """The cache-miss path of a service with two or more tenants.

    Exposes the synopsis surface (``distance(s, t)``) that the front's
    point queries and :class:`~repro.serving.batching.BatchPlanner`
    call on a miss, routed by shard ownership (intra-shard pairs to the
    owning synopsis capped by the relay, cross-shard pairs through the
    relay), and the routed answer's noise scale
    (:meth:`noise_scale_for`).  Also holds what routing needs across
    epochs: the shard tenants, the cut and boundary it derives from the
    plan and the graph, the public edge classification and relay site
    bookkeeping, and the current relay release.

    ``names`` names the tenants of shards ``0, 1, ...`` in order; each
    gets its shard's induced subgraph, built from the shard's slice of
    the edge list.
    """

    def __init__(
        self,
        plan: ShardPlan,
        graph: WeightedGraph,
        names: Sequence[str],
    ) -> None:
        self.plan = plan
        #: The released boundary-hub relay structure (``None`` until
        #: built, or after a failed rebuild).
        self.relay: HubStructure | None = None
        csr = CSRGraph.from_graph(graph)
        shard_of = np.fromiter(
            map(plan.shard_of, csr.vertices), dtype=np.int64, count=csr.n
        )
        # Edge classification over the full graph's canonical edge
        # order: owning shard for intra-shard edges, -1 for cut edges.
        # This is what lets refresh_shard verify an update really is
        # regional before committing it.
        edge_u, edge_v = csr.edge_endpoints
        cut = shard_of[edge_u] != shard_of[edge_v]
        edge_shard = shard_of[edge_u]
        edge_shard[cut] = -1
        self._edge_shard = edge_shard
        self._edge_keys = graph.edge_list()
        #: Per shard, the positions of its tenant subgraph's edges in
        #: the full edge order: an induced subgraph keeps its parent's
        #: edge order, so they are the shard's intra-shard edges.
        self.tenant_edges = [
            np.flatnonzero(edge_shard == shard)
            for shard in range(plan.num_shards)
        ]
        vertices = csr.vertices
        self.tenants = [
            _Tenant(
                name,
                graph.edge_subgraph(
                    [
                        vertices[v]
                        for v in np.flatnonzero(shard_of == shard).tolist()
                    ],
                    self.tenant_edges[shard].tolist(),
                ),
            )
            for shard, name in enumerate(names)
        ]
        #: The relay sites: the endpoints of the cut edges, as sorted
        #: vertex indices (vertex insertion order).
        self.boundary = np.unique(
            np.concatenate([edge_u[cut], edge_v[cut]])
        )

        # Relay site bookkeeping (static across refreshes: the plan and
        # boundary are topology-only).
        site_shard = shard_of[self.boundary]
        self._site_pos: List[np.ndarray] = [
            np.flatnonzero(site_shard == shard)
            for shard in range(plan.num_shards)
        ]
        self._shard_boundary: List[Tuple[Vertex, ...]] = [
            tuple(vertices[i] for i in self.boundary[positions].tolist())
            for positions in self._site_pos
        ]
        self._site_shard = site_shard
        # Local position of each site within its shard's boundary list.
        site_local = np.zeros(len(self.boundary), dtype=np.int64)
        for positions in self._site_pos:
            site_local[positions] = np.arange(len(positions))
        self._site_local = site_local
        self._relay_ball_cross: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Public-topology checks (before any budget is spent)
    # ------------------------------------------------------------------

    def check_regional(
        self, shard: int, old: np.ndarray, new: np.ndarray
    ) -> None:
        """Reject an update of ``shard`` whose weights ``new`` differ
        from ``old`` (both in the edge order of the graph the router
        was built over) outside its own edges and the cut edges — it
        would silently stale the untouched tenants."""
        changed = old != new
        allowed = (self._edge_shard == shard) | (self._edge_shard == -1)
        bad = changed & ~allowed
        if bad.any():
            edge = self._edge_keys[int(np.argmax(bad))]
            raise GraphError(
                f"refresh_shard({shard}) may only change weights of "
                f"shard-{shard} edges and cut edges; edge {edge!r} "
                f"belongs elsewhere (use refresh() for a full epoch)"
            )

    # ------------------------------------------------------------------
    # The relay release
    # ------------------------------------------------------------------

    def set_relay(self, structure: HubStructure) -> None:
        """Install the epoch's relay release, bucketing its ball table
        by shard pair (the hub sample is redrawn each epoch, so the
        exclusions change too).  Same-shard buckets ``(i, i)`` refine
        the intra-shard relay cap.

        Each entry is oriented from the lower shard id to the higher
        one; a stable sort by shard pair keeps the ball's key order
        within each bucket."""
        k = self.plan.num_shards
        lo, hi = np.divmod(structure.ball_keys, len(self.boundary))
        flip = self._site_shard[lo] > self._site_shard[hi]
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        pair = self._site_shard[lo] * k + self._site_shard[hi]
        order = np.argsort(pair, kind="stable")
        pairs, starts = np.unique(pair[order], return_index=True)
        stops = [*starts[1:].tolist(), len(order)]
        lo_local = self._site_local[lo[order]]
        hi_local = self._site_local[hi[order]]
        values = structure.ball_values[order]
        self._relay_ball_cross = {
            divmod(p, k): (lo_local[a:b], hi_local[a:b], values[a:b])
            for p, a, b in zip(pairs.tolist(), starts.tolist(), stops)
        }
        self.relay = structure

    def require_relay(self) -> HubStructure:
        """The relay release; refuses (fails closed) when the last
        rebuild failed."""
        if self.relay is None:
            raise PrivacyError(
                "no boundary-hub relay for the current epoch (the "
                "last rebuild failed); refresh before serving "
                "cross-shard queries"
            )
        return self.relay

    # ------------------------------------------------------------------
    # Routing (post-processing only)
    # ------------------------------------------------------------------

    def route(self, source: Vertex, target: Vertex) -> str:
        """``"intra"`` when the pair shares a shard, else ``"cross"``
        (raises :class:`~repro.exceptions.VertexNotFoundError` for a
        vertex outside the plan)."""
        shard_of = self.plan.shard_of
        return "intra" if shard_of(source) == shard_of(target) else "cross"

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The routed answer for one pair."""
        shard_of = self.plan.shard_of
        i, j = shard_of(source), shard_of(target)
        if i == j:
            direct = self.tenants[i].released().distance(source, target)
            if source == target or self.relay is None:
                # A failed relay rebuild: intra answers keep serving
                # from the shard synopsis.
                return direct
            # A border pair's best corridor may dip into a neighboring
            # shard, which the induced-subgraph synopsis cannot see;
            # cap the detour with the relay decomposition through the
            # shard's own boundary (free post-processing).
            return min(direct, self._relay_candidate(source, i, target, j))
        self.require_relay()
        return self._relay_candidate(source, i, target, j)

    def noise_scale_for(
        self, source: Vertex, target: Vertex, value: float
    ) -> float:
        """The noise scale behind :meth:`distance`'s answer ``value``.

        The owning synopsis's scale for an intra-shard answer the
        relay cap did not win (or with no relay); otherwise the relay
        chain ``sigma_i + 2 rho + sigma_j``, one boundary leg per
        endpoint shard at its per-entry scale plus the two-entry relay
        term.  The direct estimate won iff it equals ``value`` (one
        synopsis lookup, no relay recomputation).
        """
        if source == target:
            return 0.0
        shard_of = self.plan.shard_of
        i, j = shard_of(source), shard_of(target)
        own = self.tenants[i].released()
        if i == j and (
            self.relay is None or own.distance(source, target) == value
        ):
            return own.noise_scale_for(source, target)
        relay = self.require_relay()
        return (
            own.noise_scale
            + 2.0 * relay.noise_scale
            + self.tenants[j].released().noise_scale
        )

    def _boundary_distances(self, shard: int, v: Vertex) -> np.ndarray:
        """Released distances from ``v`` to its shard's boundary
        vertices (free post-processing of the shard synopsis)."""
        synopsis = self.tenants[shard].released()
        return np.asarray(
            [
                synopsis.distance(v, b)
                for b in self._shard_boundary[shard]
            ],
            dtype=float,
        )

    def _relay_candidate(
        self, s: Vertex, i: int, t: Vertex, j: int
    ) -> float:
        """The relay decomposition estimate for any pair.

        ``min_{b_s, b_t} d_i(s, b_s) + relay(b_s, b_t) + d_j(b_t, t)``
        over shard ``i``'s and shard ``j``'s boundary vertices,
        computed as a vectorized min over hub relays (the relay term
        subsumes direct boundary-boundary hub lookups because hub
        self-distances are exactly 0), refined by the relay's
        local-ball entries for the shard pair, clamped at 0 — pure
        post-processing of released values.  With ``i == j`` this is
        the intra-shard cap for corridors leaving the shard.
        """
        structure = self.relay
        assert structure is not None
        ds = self._boundary_distances(i, s)
        dt = self._boundary_distances(j, t)
        matrix = structure.matrix
        via_s = np.min(matrix[:, self._site_pos[i]] + ds, axis=1)
        via_t = np.min(matrix[:, self._site_pos[j]] + dt, axis=1)
        best = float(np.min(via_s + via_t))
        pair = (i, j) if i <= j else (j, i)
        bucket = self._relay_ball_cross.get(pair)
        if bucket is not None:
            lo_local, hi_local, values = bucket
            if i == j:
                # Both orientations: ds and dt differ over the same
                # boundary list.
                best = min(
                    best,
                    float((ds[lo_local] + values + dt[hi_local]).min()),
                    float((ds[hi_local] + values + dt[lo_local]).min()),
                )
            elif i < j:
                best = min(
                    best, float((ds[lo_local] + values + dt[hi_local]).min())
                )
            else:
                best = min(
                    best, float((ds[hi_local] + values + dt[lo_local]).min())
                )
        return max(best, 0.0)
