"""The full-sweep hub construction, kept as a test oracle.

This is the construction :func:`repro.apsp.hubs.build_hub_structure`
used before it moved to local searches: one exact sweep from every
site, a second unit-weight sweep for the hop counts, and a stable
argsort of every row to pick the balls.  It allocates two ``m x m``
matrices, so it only serves small graphs in tests, where it pins down
what a seeded build must release.  The scalar lookups a structure
answered with before its ball table became sorted arrays, through a
dict keyed by pair, are kept here too, as are the directed test graph
and the shard-boundary site sets the hub tests share.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.apsp.hubs import HubStructure
from repro.dp.composition import composed_noise_scale
from repro.engine.csr import CSRGraph
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
