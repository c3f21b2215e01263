"""Hub-set all-pairs release (follow-up work to Section 4's baselines).

The paper's intro baselines answer the ``Q = V(V-1)/2`` pair queries by
splitting the budget over *every* pair, so the per-answer noise scale is
``~V^2/eps`` (pure) or ``~V/eps`` (advanced composition).  Follow-up
work — Chen–Narayanan–Xu (arXiv:2204.02335) and Ghazi et al.
(arXiv:2203.16476) — observes that far fewer released values suffice to
*cover* all pairs:

* **Hub relays.**  Sample a hub set ``S`` of ``~sqrt(V)`` vertices
  (data-independent: the topology is public and the sample ignores the
  weights).  Releasing the ``V x |S|`` vertex<->hub distance table lets
  any pair be answered by the noisy min over relays
  ``min_h a(u, h) + a(h, v)``; a long shortest path passes near a
  random hub with high probability, so the relay detour is small
  exactly where hop counts are large.
* **Local balls.**  Short-hop pairs — the ones a random hub misses —
  are covered directly: each vertex also releases distances to its
  ``~sqrt(V)`` nearest neighbours *by hop count* (ball membership
  depends only on the public topology).

Together the released vector has ``Q ~ V^{3/2}`` entries instead of
``V^2``, so the same composition arguments give per-entry noise
``~V^{3/2}/eps`` (pure, Laplace vector mechanism) or
``~V^{3/4} sqrt(log(1/delta))/eps`` (advanced composition) — the
``sqrt(V)``-type improvement the ISSUE targets.  Answering a query is
pure post-processing of the released tables: a vectorized min over
``|S|`` relay sums plus one ball lookup.

Construction never builds a site-by-site matrix.  The topology is
public, so the hub sample and the hop-count balls are chosen without
reading a weight, and only the released entries need exact weighted
distances.  One hop search reads no weight and finds both halves of
the ball table, on :class:`repro.engine.frontier.FrontierSearch`, a
level-synchronous search over the CSR arrays that touches only the
vertices it reaches.  It runs once per chunk of sites, the chunks in
descending site order, and keeps every level's parents:

* **balls** — each site grows until the hop level where it has found
  ``ball_size`` other sites (ties in hop count go to the lower site
  position), and pauses there;
* **partner trees** — each distinct ball pair's lower-index site
  keeps its search's BFS tree (one parent per vertex), cut at the
  level of its deepest partner.  Every partner above a chunk's sites
  is known once the chunk's balls are (the higher sites' balls were
  searched first), so only a site whose ball missed a partner resumes
  from its paused level, until it reaches them all.

Both are computed once per compiled topology and kept in its memo
(:meth:`repro.engine.csr.CSRGraph.topology_memo`), with the sites'
mutual reachability: every later epoch, tenant or relay over the same
structure reuses them, and only the hub sample, the weighted sweeps
and the noise are redone.  Every weighted sweep is a
:func:`repro.engine.kernels.multi_source_distances` call over a block
of at most :func:`~repro.engine.kernels.sweep_block_rows` sources
(1 MiB of distances), of which the build reads only a few entries:

* **hub rows** — one unlimited sweep from each hub;
* **ball pairs** — one sweep from each pair source, limited to its
  partners' largest tree-path weight.  One level-by-level pass over
  the trees gives those weights each epoch.  A tree-path weight adds
  the same left-associated floats a Dijkstra adds along one path, and
  rounding is monotone, so it is at least the Dijkstra value bit for
  bit.  Sources are swept in order of that limit, in blocks whose
  limits lie within ``_BAND_FACTOR`` of each other, and each source is
  swept exactly once.

A limited Dijkstra returns the unlimited value, bit for bit, for every
target within the limit, so a seeded build releases exactly what one
exact sweep from every site would have; a partner left unsettled
raises instead of being released.  Each table's noise is one
vectorized Laplace draw.  The shipped structure carries only the
``~V^{3/2}`` released values, and the release objects keep no exact
distances: ``exact_distance`` (error measurement, not private) sweeps
one source row on demand.

The ball table is two arrays, the sorted pair keys ``lo * m + hi`` and
their noisy values, taken as they come out of the build: its pair
keys and one noise vector, with no per-entry table in between.  A
scalar lookup reads them in pure Python, with no numpy call: the
structure derives once where each site's row of keys starts, the
row's partner sites in ascending order and its largest partner.  A
lookup whose partner lies above the lower site's largest one is a
miss at once; any other bisects within that row.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..dp.composition import composed_noise_scale
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..engine.frontier import (
    FrontierSearch,
    is_weakly_connected,
    ranges,
    reached,
)
from ..engine.kernels import (
    kernel_span,
    multi_source_distances,
    sweep_block_rows,
)
from ..exceptions import DisconnectedGraphError, EngineError, GraphError
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng
from ..telemetry import get_telemetry

__all__ = [
    "HubStructure",
    "HubSetRelease",
    "default_hub_count",
    "default_ball_size",
    "hub_pair_count_bound",
    "predicted_hub_scale",
]

#: Sites per hop search (:func:`_ball_trees`), whose scratch holds
#: ``_ROW_CHUNK x V`` int32s.  On the 64x64 grid chunks of 128 to 512
#: sites measured alike and 64 about 40% slower.
_ROW_CHUNK = 256

#: Ball-pair sources swept together have limits within this factor,
#: so no source searches far beyond its own partners.
_BAND_FACTOR = 1.5


def default_hub_count(num_sites: int) -> int:
    """The default hub-set size: ``ceil(sqrt(m))``, the CNX choice."""
    if num_sites <= 0:
        raise GraphError(f"need at least one site, got {num_sites}")
    return min(max(1, math.ceil(math.sqrt(num_sites))), num_sites)


def default_ball_size(num_sites: int) -> int:
    """The default local-ball size: ``ceil(sqrt(m))`` nearest sites by
    hop count (0 on a single site)."""
    if num_sites <= 0:
        raise GraphError(f"need at least one site, got {num_sites}")
    return min(max(0, math.ceil(math.sqrt(num_sites))), num_sites - 1)


def hub_pair_count_bound(
    num_sites: int,
    hub_count: int | None = None,
    ball_size: int | None = None,
) -> int:
    """An upper bound on the distinct pair queries the hub mechanism
    releases, from public size parameters only.

    The hub table contributes ``h(m-h) + h(h-1)/2`` distinct unordered
    pairs (self-distances are data-independent zeros and hub-hub
    mirrors are copies, not fresh releases); the ball contributes at
    most ``m * b`` more.  The exact ball count deduplicates shared
    pairs, so the true released count is at most this bound.
    """
    m = num_sites
    h = default_hub_count(m) if hub_count is None else hub_count
    b = default_ball_size(m) if ball_size is None else ball_size
    return h * (m - h) + h * (h - 1) // 2 + m * b


def predicted_hub_scale(
    num_sites: int,
    eps: float,
    delta: float = 0.0,
    hub_count: int | None = None,
    ball_size: int | None = None,
) -> float:
    """The noise scale the hub mechanism would pay on ``num_sites``
    sites — a public quantity used by mechanism auto-selection."""
    return composed_noise_scale(
        hub_pair_count_bound(num_sites, hub_count, ball_size), eps, delta
    )


class HubStructure:
    """The released hub artifact over ``m`` *sites* (integer indexed).

    For the plain release the sites are all vertices; the
    bounded-weight variant runs the same structure over Algorithm 2's
    covering vertices.  Holds:

    * ``hub_positions`` — site positions of the sampled hubs;
    * ``matrix`` — the ``(h, m)`` noisy site->hub distance table
      (hub self-distances exactly 0, hub-hub mirrors symmetrized to a
      single released value);
    * ``ball_keys``, ``ball_values`` — the noisy local-ball table:
      the keys ``lo * m + hi`` of canonical site pairs ``lo < hi``,
      strictly increasing, and each pair's released value (pairs with
      a hub endpoint are excluded — the hub table already covers
      them).

    Everything here is a released value or public topology, so the
    structure is safe to serialize and ship.  For scalar lookups the
    constructor also lays the ball out by row: where each site's keys
    start, the partner site ``hi`` of every key, ascending within a
    row, and each row's largest partner, so :meth:`estimate` bisects
    at most one row, in pure Python.
    """

    def __init__(
        self,
        num_sites: int,
        hub_positions: np.ndarray,
        matrix: np.ndarray,
        ball_keys: np.ndarray,
        ball_values: np.ndarray,
        noise_scale: float,
        pair_count: int,
    ) -> None:
        self.num_sites = int(num_sites)
        self.hub_positions = np.asarray(hub_positions, dtype=np.int64)
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (len(self.hub_positions), self.num_sites):
            raise GraphError(
                f"hub matrix shape {self.matrix.shape} does not match "
                f"{len(self.hub_positions)} hubs x {self.num_sites} sites"
            )
        self.ball_keys = np.asarray(ball_keys, dtype=np.int64)
        self.ball_values = np.asarray(ball_values, dtype=float)
        if self.ball_keys.shape != self.ball_values.shape:
            raise GraphError(
                f"{self.ball_keys.shape} ball keys do not match "
                f"{self.ball_values.shape} ball values"
            )
        if (np.diff(self.ball_keys) <= 0).any():
            raise GraphError("ball keys must be strictly increasing")
        lo, partner = np.divmod(self.ball_keys, self.num_sites)
        starts = np.searchsorted(lo, np.arange(self.num_sites + 1))
        # Each row's largest partner (-1 for an empty row): a partner
        # above it is no ball pair, which a lookup sees without a
        # bisect.
        last = np.full(self.num_sites, -1, dtype=np.int64)
        filled = starts[1:] > starts[:-1]
        last[filled] = partner[starts[1:][filled] - 1]
        self._rows: List[int] = starts.tolist()
        self._last: List[int] = last.tolist()
        self._partners = array("i", partner.astype(np.intc).tobytes())
        self._values = array("d", self.ball_values.tobytes())
        self.noise_scale = float(noise_scale)
        self.pair_count = int(pair_count)

    @property
    def hub_count(self) -> int:
        """Number of sampled hubs."""
        return len(self.hub_positions)

    def estimate(self, i: int, j: int) -> float:
        """The released distance estimate between site indices.

        The noisy min over hub relays ``min_h a(h,i) + a(h,j)`` —
        which subsumes direct hub lookups because hub self-distances
        are exactly 0 — refined by the local-ball entry when the pair
        is covered, clamped at 0 (post-processing)."""
        if i == j:
            return 0.0
        best = float(np.min(self.matrix[:, i] + self.matrix[:, j]))
        lo, hi = (i, j) if i < j else (j, i)
        if hi <= self._last[lo]:
            partners, rows = self._partners, self._rows
            k = bisect_left(partners, hi, rows[lo], rows[lo + 1])
            if partners[k] == hi and self._values[k] < best:
                best = self._values[k]
        return max(best, 0.0)

    def scale_for(self, i: int, j: int) -> float:
        """The effective noise scale behind :meth:`estimate`.

        A local-ball answer is one released entry (the direct scale);
        a relay answer sums two released entries, so its effective
        scale is twice the per-entry scale (the conservative L1
        composition of the two Laplace terms).  Mirrors
        :meth:`estimate`'s min exactly: a ball-covered pair still
        reports the composed scale when the relay min actually won.
        Identical sites answer a deterministic 0 with no noise at all.
        """
        if i == j:
            return 0.0
        lo, hi = (i, j) if i < j else (j, i)
        if hi <= self._last[lo]:
            partners, rows = self._partners, self._rows
            k = bisect_left(partners, hi, rows[lo], rows[lo + 1])
            if partners[k] == hi and self._values[k] < float(
                np.min(self.matrix[:, i] + self.matrix[:, j])
            ):
                return self.noise_scale
        return 2.0 * self.noise_scale


def build_hub_structure(
    csr: CSRGraph,
    site_idx: np.ndarray,
    hub_count: int,
    ball_size: int,
    eps: float,
    delta: float,
    rng: Rng,
) -> HubStructure:
    """Build the released hub structure over the given site indices.

    ``site_idx`` holds the CSR indices of the ``m`` sites; the
    structure addresses them by position.  The sites must be distinct
    vertex indices (:class:`~repro.exceptions.GraphError`) that all
    reach each other, which is checked on the public topology before
    any draw (:class:`~repro.exceptions.DisconnectedGraphError`).  The
    rng then draws the hub sample, the hub-table noise and the ball
    noise, in that order.

    The exact values behind the released entries come from local
    searches and from sweeps in blocks of at most
    :func:`~repro.engine.kernels.sweep_block_rows` sources (see the
    module docstring), so no exact ``m x m`` matrix is built and none
    is returned: a release that measures its own error recomputes a
    source row on demand.
    """
    site_idx = np.asarray(site_idx, dtype=np.int64)
    m = len(site_idx)
    if not 1 <= hub_count <= m:
        raise GraphError(
            f"hub_count must be in [1, {m}], got {hub_count}"
        )
    if not 0 <= ball_size <= max(m - 1, 0):
        raise GraphError(
            f"ball_size must be in [0, {max(m - 1, 0)}], got {ball_size}"
        )
    if site_idx.min() < 0 or site_idx.max() >= csr.n:
        raise GraphError(
            f"hub sites must be vertex indices in [0, {csr.n})"
        )
    if len(np.unique(site_idx)) != m:
        raise GraphError("hub sites must be distinct vertices")
    with get_telemetry().span(
        "hubs.build", sites=m, hubs=hub_count, ball_size=ball_size
    ):
        return _build_hub_structure_inner(
            csr, site_idx, m, hub_count, ball_size, eps, delta, rng
        )


def _build_hub_structure_inner(
    csr: CSRGraph,
    site_idx: np.ndarray,
    m: int,
    hub_count: int,
    ball_size: int,
    eps: float,
    delta: float,
    rng: Rng,
) -> HubStructure:
    sites = site_idx.tobytes()
    if not csr.topology_memo(
        ("reachable", sites),
        lambda unit: _mutually_reachable(unit, site_idx),
    ):
        raise DisconnectedGraphError(
            "hub-set release requires all sites mutually reachable"
        )

    # Hub sample: uniform over sites, independent of the weights.
    hubs = np.array(
        sorted(rng.sample(range(m), hub_count)), dtype=np.int64
    )

    # Exact hub rows: one Dijkstra per hub.
    with kernel_span("engine.hub_rows", hubs=hub_count):
        exact_rows = np.empty((hub_count, m))
        rows = sweep_block_rows(csr)
        for lo in range(0, hub_count, rows):
            block = multi_source_distances(
                csr, site_idx[hubs[lo : lo + rows]]
            )
            exact_rows[lo : lo + rows] = block[:, site_idx]

    # Ball pairs: nearest sites by hop count (public topology), less
    # the pairs with a hub endpoint — the hub table covers those.
    ball_pairs = np.empty(0, dtype=np.int64)
    if ball_size > 0:
        with kernel_span("engine.hop_balls", sites=m, ball_size=ball_size):
            trees = csr.topology_memo(
                ("ball_trees", sites, ball_size),
                lambda unit: _ball_trees(unit, site_idx, ball_size),
            )
        is_hub = np.zeros(m, dtype=bool)
        is_hub[hubs] = True
        keep = ~(is_hub[trees.lo] | is_hub[trees.hi])
        pair_lo, pair_hi = trees.lo[keep], trees.hi[keep]
        ball_pairs = pair_lo.astype(np.int64) * m + pair_hi
        if len(ball_pairs):
            with kernel_span("engine.ball_pairs", pairs=len(ball_pairs)):
                bound = _tree_weights(csr, trees)[trees.entry[keep]]
                exact_ball = _pair_distances(
                    csr, site_idx, pair_lo, pair_hi, bound
                )

    # Budget accounting over the distinct released pair queries.
    q_hub = hub_count * (m - hub_count) + hub_count * (hub_count - 1) // 2
    pair_count = q_hub + len(ball_pairs)
    scale = composed_noise_scale(pair_count, eps, delta)

    # Vertex<->hub table: one vectorized Laplace draw over the matrix,
    # then enforce the data-independent entries — hub self-distances
    # are exactly 0 and each hub-hub pair is released once (the mirror
    # cell is a copy, not a second noisy release).
    matrix = exact_rows + rng.laplace_vector(
        scale, hub_count * m
    ).reshape(hub_count, m)
    sub = matrix[:, hubs]
    upper = np.triu_indices(hub_count, k=1)
    sub[(upper[1], upper[0])] = sub[upper]
    np.fill_diagonal(sub, 0.0)
    matrix[:, hubs] = sub

    # Local-ball table: vectorized noise over the distinct pairs, whose
    # keys are already sorted.
    ball_values = np.empty(0)
    if len(ball_pairs):
        ball_values = exact_ball + rng.laplace_vector(scale, len(ball_pairs))

    return HubStructure(
        num_sites=m,
        hub_positions=hubs,
        matrix=matrix,
        ball_keys=ball_pairs,
        ball_values=ball_values,
        noise_scale=scale,
        pair_count=pair_count,
    )


def _mutually_reachable(csr: CSRGraph, site_idx: np.ndarray) -> bool:
    """Whether every site reaches every other, from topology alone.
    On a connected undirected graph they all do, which the memoized
    weak connectivity answers without a search; otherwise all sites
    must be reachable from the first one and, on a directed graph,
    the first one from all of them."""
    if not csr.directed and is_weakly_connected(csr):
        return True
    start = int(site_idx[0])
    if not reached(csr.indptr, csr.indices, start)[site_idx].all():
        return False
    if not csr.directed:
        return True
    in_indptr, in_tails, _ = csr.incoming()
    return bool(reached(in_indptr, in_tails, start)[site_idx].all())


@dataclass(frozen=True)
class _BallTrees:
    """The topology-only half of the local-ball table, kept in the
    topology memo (every array read-only).

    * ``lo``, ``hi`` — the site positions of each distinct pair
      ``lo < hi`` where one site is in the other's ball, sorted;
    * ``entry`` — per pair, the entry of ``hi`` in ``lo``'s tree;
    * ``parent``, ``arc`` — per tree entry, its parent entry and the
      CSR arc from the parent's vertex to its own (a root is its own
      parent, with arc ``-1``);
    * ``levels`` — where each BFS level starts: the entries of all
      trees are stored level by level, roots first, one root per
      distinct ``lo``.

    ``lo``'s tree is its breadth-first search cut at its deepest
    partner's level.  :func:`_ball_trees` builds both halves in one
    search per chunk of sites, the chunks in descending order, resuming
    a site's paused ball search only for a partner its ball missed.
    """

    lo: np.ndarray
    hi: np.ndarray
    entry: np.ndarray
    parent: np.ndarray
    arc: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        for array in vars(self).values():
            array.setflags(write=False)


def _ball_trees(
    unit: CSRGraph, site_idx: np.ndarray, ball_size: int
) -> _BallTrees:
    """The ball pairs and partner trees of ``ball_size``-site balls
    over the unit-weight view ``unit`` of the topology, from one
    :class:`~repro.engine.frontier.FrontierSearch` pass per chunk of
    at most :data:`_ROW_CHUNK` sites.

    The chunks are searched in descending site order.  Once a chunk's
    balls are complete (:func:`_grow_balls`), every partner ``hi > lo``
    of its sites is known: a member of the site's own ball, or a
    higher site, in this chunk or in one searched before, whose ball
    holds it.  The sources with a partner their ball did not reach
    resume from their paused level until they reach them all
    (:func:`_resume_trees`), and each tree is cut at its deepest
    partner's level.  A source's parents do not depend on the other
    sources of its chunk, so each tree is the one a search from its
    ``lo`` alone grows.
    """
    m = len(site_idx)
    position = np.full(unit.n, -1, dtype=np.int64)
    position[site_idx] = np.arange(m)
    search = FrontierSearch(unit.indptr, unit.indices, min(_ROW_CHUNK, m))
    # Ball pair keys ``lo * m + hi`` whose ``lo``'s chunk is still to
    # come: one sorted array per chunk searched.
    below: List[np.ndarray] = []
    pairs, trees = [], []
    base = 0
    for begin in reversed(range(0, m, _ROW_CHUNK)):
        rows = np.arange(begin, min(begin + _ROW_CHUNK, m))
        keys, levels, paused = _grow_balls(
            search, site_idx, position, rows, ball_size
        )
        low = keys < begin * m
        mine = [keys[~low]]
        for i, pending in enumerate(below):
            at = np.searchsorted(pending, begin * m)
            mine.append(pending[at:])
            below[i] = pending[:at]
        below.append(np.sort(keys[low]))
        key = np.sort(np.concatenate(mine))
        key = key[np.diff(key, prepend=-1) != 0]
        bounds = np.searchsorted(key, np.append(rows, rows[-1] + 1) * m)
        owner = np.repeat(np.arange(rows.size), np.diff(bounds))
        lo = rows[owner]
        hi = key - lo * m
        entry = _resume_trees(search, levels, paused, owner, site_idx[hi])
        search.reset()
        # Cut each tree at its deepest partner's level (a source with
        # no partner keeps no tree): a cut entry's depth becomes -1.
        tree_owner, parent, arc, depth = (
            np.concatenate(level) for level in zip(*levels)
        )
        deepest = np.full(rows.size, -1, dtype=np.int32)
        np.maximum.at(deepest, owner, depth[entry])
        depth[depth > deepest[tree_owner]] = -1
        pairs.append((lo, hi, entry + base))
        trees.append((parent + base, arc, depth))
        base += depth.size
    lo, hi, entry = (np.concatenate(part[::-1]) for part in zip(*pairs))
    parent, arc, depth = (np.concatenate(part) for part in zip(*trees))
    # Lay the kept entries of all trees out level by level: a stable
    # sort by depth, which puts the cut entries first.  A 16-bit key
    # sorts by radix, whatever order the chunks left the depths in.
    depth = depth.astype(np.int16 if depth.max() < 2**15 else np.int64)
    order = np.argsort(depth, kind="stable")
    depth = depth[order]
    cut = np.searchsorted(depth, 0)
    order, depth = order[cut:], depth[cut:]
    rank = np.empty(len(parent), dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    levels = np.searchsorted(depth, np.arange(depth[-1] + 2))
    return _BallTrees(
        lo.astype(np.int32),
        hi.astype(np.int32),
        rank[entry],
        rank[parent[order]],
        arc[order].astype(np.int32),
        levels,
    )


def _grow_balls(
    search: FrontierSearch,
    site_idx: np.ndarray,
    position: np.ndarray,
    rows: np.ndarray,
    ball_size: int,
) -> Tuple[np.ndarray, list, tuple]:
    """Open a search from the sites ``rows`` and grow their balls.

    A ball is the first ``ball_size`` entries after self of its row in
    (hop count, site position) order — what a stable argsort of the
    full hop matrix gives.  Each site grows until the level where it
    has found ``ball_size`` other sites, takes that level's sites in
    position order, as many as it still needs, and pauses there.
    Returns the balls' pair keys ``lo * m + hi`` (with repeats), every
    level as ``(owner, parent, arc, depth)`` per entry, roots first
    (each its own parent, with arc ``-1``), and the paused levels as
    ``(owner, vertex, depth)``, the depth per source.
    """
    m = len(site_idx)
    owner, vertex = search.start(site_idx[rows])
    levels = [(
        owner,
        owner.astype(np.int32),
        np.full(rows.size, -1, dtype=np.int64),
        np.zeros(rows.size, dtype=np.int32),
    )]
    paused_owner, paused_vertex = [], []
    paused_depth = np.zeros(rows.size, dtype=np.int32)
    found = np.ones(rows.size, dtype=np.int64)
    keys = []
    while owner.size:
        owner, vertex, parent, arc = search.expand(owner, vertex)
        depth = len(levels)
        levels.append(
            (owner, parent, arc, np.full(owner.size, depth, dtype=np.int32))
        )
        site = position[vertex]
        is_site = site >= 0
        row, col = owner[is_site], site[is_site]
        counts = np.bincount(row, minlength=rows.size)
        if (counts > ball_size + 1 - found).any():
            # A ball fills on this level.  The level lists its owners in
            # ascending order, as level 0 does, so sorting its keys
            # orders each owner's sites by position.
            key = row * m + col
            key.sort()
            col = key - row * m
            rank = np.arange(key.size) - (np.cumsum(counts) - counts)[row]
            take = rank <= ball_size - found[row]
            row, col = row[take], col[take]
        row = rows[row]
        keys.append(np.minimum(row, col) * m + np.maximum(row, col))
        found += counts
        stop = found[owner] > ball_size
        stopped = owner[stop]
        paused_owner.append(stopped)
        paused_vertex.append(vertex[stop])
        paused_depth[stopped] = depth
        owner, vertex = owner[~stop], vertex[~stop]
    paused = (
        np.concatenate(paused_owner),
        np.concatenate(paused_vertex),
        paused_depth,
    )
    return np.concatenate(keys), levels, paused


def _resume_trees(
    search: FrontierSearch,
    levels: list,
    paused: tuple,
    owner: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Resume the sources of ``search`` that have not reached all their
    partners (source ``owner[k]``, vertex ``target[k]``) from their
    paused levels (:func:`_grow_balls`) until they have; appends each
    level to ``levels`` and returns every partner's entry."""
    entry = search.entries(owner, target)
    unreached = np.flatnonzero(entry < 0)
    waiting = unreached
    frontier_owner, vertex, paused_depth = paused
    step = 0
    while True:
        growing = np.zeros(len(paused_depth), dtype=bool)
        growing[owner[waiting]] = True
        keep = growing[frontier_owner]
        frontier_owner, vertex = frontier_owner[keep], vertex[keep]
        if not frontier_owner.size:
            break
        frontier_owner, vertex, parent, arc = search.expand(
            frontier_owner, vertex
        )
        step += 1
        levels.append(
            (frontier_owner, parent, arc, paused_depth[frontier_owner] + step)
        )
        reached = search.entries(owner[waiting], target[waiting])
        waiting = waiting[reached < 0]
    entry[unreached] = search.entries(owner[unreached], target[unreached])
    return entry


def _tree_weights(csr: CSRGraph, trees: _BallTrees) -> np.ndarray:
    """Every tree entry's path weight from its root under ``csr``'s
    weights, one level at a time, summed left to right from the root
    as a Dijkstra sums: at least the entry's distance, bit for bit."""
    weight = np.zeros(len(trees.parent))
    levels = trees.levels
    for begin, end in zip(levels[1:-1], levels[2:]):
        weight[begin:end] = (
            weight[trees.parent[begin:end]]
            + csr.weights[trees.arc[begin:end]]
        )
    return weight


def _pair_distances(
    csr: CSRGraph,
    site_idx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    bound: np.ndarray,
) -> np.ndarray:
    """The exact distance from site ``lo[k]`` to site ``hi[k]`` for
    each pair, computed from the lower-index site as the full sweep's
    ``exact[lo, hi]`` was.

    ``lo`` must be sorted and ``bound[k]`` at least pair ``k``'s
    distance.  Each source is swept once, limited to its partners'
    largest bound: sources are taken in order of that limit, in blocks
    of at most :func:`~repro.engine.kernels.sweep_block_rows` whose
    limits lie within :data:`_BAND_FACTOR` of the block's first.  The
    pairs are laid out once in that order, so each block reads its
    partners from one slice.  Every target within a limit is settled
    at its unlimited value bit for bit, so a partner left unsettled
    means a wrong bound: it raises
    :class:`~repro.exceptions.EngineError` rather than be released.
    """
    first = np.flatnonzero(np.diff(lo, prepend=-1))
    counts = np.diff(np.append(first, len(lo)))
    limits = np.maximum.reduceat(bound, first)
    order = np.argsort(limits, kind="stable")
    first, counts, limits = first[order], counts[order], limits[order]
    sources = site_idx[lo[first]]
    band_end = np.searchsorted(limits, _BAND_FACTOR * limits, side="right")
    # Every pair in sweep order: its source's place in that order, its
    # target vertex, and where each source's pairs begin.
    pair = ranges(first, counts)
    row = np.repeat(np.arange(order.size), counts)
    target = site_idx[hi[pair]]
    begin = np.append(0, np.cumsum(counts)).tolist()
    band_end, limits = band_end.tolist(), limits.tolist()
    rows = sweep_block_rows(csr)
    got = np.empty(len(lo))
    start = 0
    while start < order.size:
        stop = min(start + rows, band_end[start])
        block = multi_source_distances(
            csr, sources[start:stop], limit=limits[stop - 1]
        )
        a, b = begin[start], begin[stop]
        got[a:b] = block[row[a:b] - start, target[a:b]]
        start = stop
    if np.isinf(got).any():
        raise EngineError("a ball partner lies beyond its tree-path bound")
    values = np.empty(len(lo))
    values[pair] = got
    return values


class HubSetRelease:
    """The improved all-pairs release: hub relays + local balls.

    Parameters
    ----------
    graph:
        Connected graph (public topology, private weights); a negative
        or non-finite weight raises
        :class:`~repro.exceptions.WeightError` before any draw.
    eps, delta:
        The privacy budget.  ``delta = 0`` uses the pure vector-Laplace
        accounting (scale ``~V^{3/2}/eps``); ``delta > 0`` uses
        advanced composition (scale ``~V^{3/4} sqrt(log 1/delta)/eps``)
        — the regime where the sqrt(V)-type asymptotics fully bite.
    hub_count, ball_size:
        Override the ``ceil(sqrt(V))`` defaults.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eps: float,
        rng: Rng,
        delta: float = 0.0,
        hub_count: int | None = None,
        ball_size: int | None = None,
    ) -> None:
        self._csr = CSRGraph.from_graph(graph)
        if not is_weakly_connected(self._csr):
            raise DisconnectedGraphError(
                "hub-set release requires a connected graph"
            )
        graph.check_nonnegative()
        self._graph = graph
        self._params = PrivacyParams(eps, delta)
        n = self._csr.n
        h = default_hub_count(n) if hub_count is None else hub_count
        b = default_ball_size(n) if ball_size is None else ball_size
        self._structure = build_hub_structure(
            self._csr,
            np.arange(n, dtype=np.int64),
            h,
            b,
            eps,
            delta,
            rng,
        )

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee of the whole release."""
        return self._params

    @property
    def graph(self) -> WeightedGraph:
        """The (public-topology) graph the release was computed on."""
        return self._graph

    @property
    def structure(self) -> HubStructure:
        """The released hub structure (safe to serialize)."""
        return self._structure

    @property
    def vertex_order(self) -> Tuple[Vertex, ...]:
        """Vertices in site-index order (the CSR compilation order)."""
        return self._csr.vertices

    @property
    def hubs(self) -> List[Vertex]:
        """The sampled hub vertices."""
        vertices = self._csr.vertices
        return [vertices[int(p)] for p in self._structure.hub_positions]

    @property
    def hub_count(self) -> int:
        """Number of sampled hubs (``~sqrt(V)`` by default)."""
        return self._structure.hub_count

    @property
    def noise_scale(self) -> float:
        """The Laplace scale applied to each released entry."""
        return self._structure.noise_scale

    @property
    def released_pair_count(self) -> int:
        """Distinct pair queries the release paid for."""
        return self._structure.pair_count

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The released (noisy) distance estimate for a pair."""
        return self._structure.estimate(
            self._csr.index_of(source), self._csr.index_of(target)
        )

    def exact_distance(  # privlint: ignore[PL1] analyst-side error measurement against the true distance; not part of the release
        self, source: Vertex, target: Vertex
    ) -> float:
        """The true distance (for error measurement; not private),
        from one source row swept on demand."""
        row = multi_source_distances(
            self._csr, [self._csr.index_of(source)]
        )
        return float(row[0, self._csr.index_of(target)])
