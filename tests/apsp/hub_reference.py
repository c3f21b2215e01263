"""The full-sweep hub construction, kept as a test oracle.

This is the construction :func:`repro.apsp.hubs.build_hub_structure`
used before it moved to local searches: one exact sweep from every
site, a second unit-weight sweep for the hop counts, and a stable
argsort of every row to pick the balls.  It allocates two ``m x m``
matrices, so it only serves small graphs in tests, where it pins down
what a seeded build must release.  The scalar lookups a structure
answered with before its ball table became sorted arrays, through a
dict keyed by pair, are kept here too, as is the two-search ball-tree
construction (a ball search from every site, then a second search
from every pair source for its partner tree), and the directed test
graph and the shard-boundary site sets the hub tests share.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.apsp.hubs import HubStructure, _BallTrees
from repro.dp.composition import composed_noise_scale
from repro.engine.csr import CSRGraph
from repro.engine.frontier import FrontierSearch
from repro.engine.kernels import multi_source_distances
from repro.exceptions import DisconnectedGraphError
from repro.graphs.graph import Vertex, WeightedGraph
from repro.rng import Rng
from repro.serving.routing import partition_graph


def reference_hub_structure(
    csr: CSRGraph,
    site_idx: np.ndarray,
    hub_count: int,
    ball_size: int,
    eps: float,
    delta: float,
    rng: Rng,
) -> HubStructure:
    """The hub structure the full-sweep construction releases."""
    site_idx = np.asarray(site_idx, dtype=np.int64)
    m = len(site_idx)
    exact = multi_source_distances(csr, site_idx)[:, site_idx]
    if np.isinf(exact).any():
        raise DisconnectedGraphError(
            "hub-set release requires all sites mutually reachable"
        )

    hubs = np.array(
        sorted(rng.sample(range(m), hub_count)), dtype=np.int64
    )

    ball_pairs = np.empty(0, dtype=np.int64)
    if ball_size > 0:
        lo, hi = reference_ball_pairs(csr, site_idx, ball_size)
        is_hub = np.zeros(m, dtype=bool)
        is_hub[hubs] = True
        keep = ~(is_hub[lo] | is_hub[hi])
        ball_pairs = lo[keep] * m + hi[keep]

    q_hub = hub_count * (m - hub_count) + hub_count * (hub_count - 1) // 2
    pair_count = q_hub + len(ball_pairs)
    scale = composed_noise_scale(pair_count, eps, delta)

    matrix = exact[hubs] + rng.laplace_vector(scale, hub_count * m).reshape(
        hub_count, m
    )
    sub = matrix[:, hubs]
    upper = np.triu_indices(hub_count, k=1)
    sub[(upper[1], upper[0])] = sub[upper]
    np.fill_diagonal(sub, 0.0)
    matrix[:, hubs] = sub

    values = np.empty(0)
    if len(ball_pairs):
        lo = ball_pairs // m
        hi = ball_pairs % m
        values = exact[lo, hi] + rng.laplace_vector(scale, len(ball_pairs))

    return HubStructure(
        num_sites=m,
        hub_positions=hubs,
        matrix=matrix,
        ball_keys=ball_pairs,
        ball_values=values,
        noise_scale=scale,
        pair_count=pair_count,
    )


def reference_ball(structure: HubStructure) -> Dict[int, float]:
    """The structure's ball table as a dict keyed by ``lo * m + hi``."""
    return dict(
        zip(structure.ball_keys.tolist(), structure.ball_values.tolist())
    )


def reference_estimate(
    structure: HubStructure, ball: Dict[int, float], i: int, j: int
) -> float:
    """:meth:`HubStructure.estimate` through the dict ``ball``."""
    if i == j:
        return 0.0
    best = float(np.min(structure.matrix[:, i] + structure.matrix[:, j]))
    lo, hi = (i, j) if i < j else (j, i)
    direct = ball.get(lo * structure.num_sites + hi)
    if direct is not None and direct < best:
        best = direct
    return max(best, 0.0)


def reference_scale_for(
    structure: HubStructure, ball: Dict[int, float], i: int, j: int
) -> float:
    """:meth:`HubStructure.scale_for` through the dict ``ball``."""
    if i == j:
        return 0.0
    lo, hi = (i, j) if i < j else (j, i)
    direct = ball.get(lo * structure.num_sites + hi)
    if direct is not None and direct < float(
        np.min(structure.matrix[:, i] + structure.matrix[:, j])
    ):
        return structure.noise_scale
    return 2.0 * structure.noise_scale


def reference_ball_pairs(
    csr: CSRGraph, site_idx: np.ndarray, ball_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct pairs ``lo < hi`` of site positions where one site
    is among the other's ``ball_size`` nearest sites by hop count,
    sorted: from a full unit-weight sweep and a stable argsort of every
    row (ties broken by site order, self at hop 0 first)."""
    site_idx = np.asarray(site_idx, dtype=np.int64)
    m = len(site_idx)
    unit = csr.with_weights(np.ones(csr.num_edges))
    hops = multi_source_distances(unit, site_idx)[:, site_idx]
    order = np.argsort(hops, axis=1, kind="stable")
    members = order[:, 1 : ball_size + 1]
    rows = np.repeat(np.arange(m, dtype=np.int64), members.shape[1])
    cols = members.ravel()
    keys = np.unique(np.minimum(rows, cols) * m + np.maximum(rows, cols))
    return keys // m, keys % m


#: Sources per search of the two-search construction.
_CHUNK = 256


def reference_ball_trees(
    unit: CSRGraph, site_idx: np.ndarray, ball_size: int
) -> _BallTrees:
    """The ball pairs and partner trees over the unit-weight view
    ``unit``, from two searches: one from every site for its ball,
    then one from each distinct ``lo`` for its partner tree."""
    site_idx = np.asarray(site_idx, dtype=np.int64)
    search = FrontierSearch(
        unit.indptr, unit.indices, min(_CHUNK, len(site_idx))
    )
    lo, hi = np.divmod(
        _hop_balls(unit, search, site_idx, ball_size), len(site_idx)
    )
    return _BallTrees(
        lo.astype(np.int32),
        hi.astype(np.int32),
        *_partner_trees(search, site_idx, lo, hi),
    )


def _hop_balls(
    unit: CSRGraph,
    search: FrontierSearch,
    site_idx: np.ndarray,
    ball_size: int,
) -> np.ndarray:
    """Each site's ``ball_size`` nearest other sites by hop count, as
    the sorted keys ``lo * m + hi`` of the distinct pairs they form:
    each site's search stops at the level where it has found
    ``ball_size`` other sites and takes that level's sites in position
    order, as many as it still needs."""
    m = len(site_idx)
    position = np.full(unit.n, -1, dtype=np.int64)
    position[site_idx] = np.arange(m)
    keys = []
    for begin in range(0, m, _CHUNK):
        rows = np.arange(begin, min(begin + _CHUNK, m))
        owner, vertex = search.start(site_idx[rows])
        found = np.ones(rows.size, dtype=np.int64)
        while owner.size:
            owner, vertex, _, _ = search.expand(owner, vertex)
            is_site = position[vertex] >= 0
            key = owner[is_site] * m + position[vertex[is_site]]
            key.sort()
            row, col = np.divmod(key, m)
            counts = np.bincount(row, minlength=rows.size)
            rank = np.arange(key.size) - (np.cumsum(counts) - counts)[row]
            take = rank <= ball_size - found[row]
            row, col = rows[row[take]], col[take]
            keys.append(np.minimum(row, col) * m + np.maximum(row, col))
            found += counts
            growing = found[owner] <= ball_size
            owner, vertex = owner[growing], vertex[growing]
        search.reset()
    keys = np.concatenate(keys)
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0]


def _partner_trees(
    search: FrontierSearch,
    site_idx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One BFS tree from each distinct ``lo`` site, grown until it
    reaches every ``hi`` partner of that site; returns ``(entry,
    parent, arc, levels)`` as ``_BallTrees`` lays them out.  ``lo``
    must be sorted."""
    first = np.flatnonzero(np.diff(lo, prepend=-1))
    bounds = np.append(first, len(lo))
    entry = np.empty(len(lo), dtype=np.int64)
    parents, arcs, depths = [], [], []
    base = 0
    for begin in range(0, len(first), _CHUNK):
        end = min(begin + _CHUNK, len(first))
        pairs = slice(bounds[begin], bounds[end])
        pair_owner = np.repeat(
            np.arange(end - begin), np.diff(bounds[begin : end + 1])
        )
        pair_vertex = site_idx[hi[pairs]]
        owner, vertex = search.start(site_idx[lo[first[begin:end]]])
        parent = [owner]
        arc = [np.full(owner.size, -1, dtype=np.int64)]
        open_pairs = np.arange(pair_owner.size)
        while owner.size:
            owner, vertex, level_parent, level_arc = search.expand(
                owner, vertex
            )
            parent.append(level_parent)
            arc.append(level_arc)
            found = search.entries(
                pair_owner[open_pairs], pair_vertex[open_pairs]
            )
            open_pairs = open_pairs[found < 0]
            growing = np.zeros(end - begin, dtype=bool)
            growing[pair_owner[open_pairs]] = True
            keep = growing[owner]
            owner, vertex = owner[keep], vertex[keep]
        entry[pairs] = search.entries(pair_owner, pair_vertex) + base
        search.reset()
        sizes = [len(level) for level in parent]
        parents.append(np.concatenate(parent) + base)
        arcs.extend(arc)
        depths.append(np.repeat(np.arange(len(sizes)), sizes))
        base += sum(sizes)
    # Lay the entries of all trees out level by level.
    depth = np.concatenate(depths)
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    levels = np.zeros(depth.max() + 2, dtype=np.int64)
    np.cumsum(np.bincount(depth), out=levels[1:])
    return (
        rank[entry].astype(np.int32),
        rank[np.concatenate(parents)[order]].astype(np.int32),
        np.concatenate(arcs)[order].astype(np.int32),
        levels,
    )


def strongly_connected_digraph(n: int, rng: Rng) -> WeightedGraph:
    """A directed cycle through all vertices plus random chords."""
    graph = WeightedGraph(directed=True)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, rng.uniform(0.5, 3.0))
    for _ in range(2 * n):
        u, v = rng.integer(0, n), rng.integer(0, n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(0.5, 3.0))
    return graph


def boundary_sites(
    graph: WeightedGraph, shards: int, seed: int
) -> List[Vertex]:
    """The relay sites of a sharded service on ``graph``: the
    endpoints of the edges ``partition_graph(graph, shards, seed)``
    cuts, in vertex insertion order."""
    shard_of = partition_graph(graph, shards, seed=seed).shard_of
    cut = set()
    for u, v in graph.edge_list():
        if shard_of(u) != shard_of(v):
            cut.update((u, v))
    return [v for v in graph.vertices() if v in cut]
