"""The per-edge Python topology derivations, kept as a test oracle.

These are the constructions a sharded service used before they moved
to array code over the compiled edge-endpoint arrays: the CSR arcs
built edge by edge, region growing that picks the smallest open
region before every step, the cut edges and boundary of an
assignment from a walk over ``graph.edges()``, induced subgraphs
built with ``add_vertex``/``add_edge``, the shard router's tables
filled edge by edge and boundary vertex by boundary vertex, the relay
ball table bucketed by shard pair one entry at a time, and the
full-refresh topology check that asks ``has_edge`` once per edge.
They return plain tuples and read nothing of the library but the
unchanged :class:`WeightedGraph` surface, :class:`ShardPlan`'s
accessors, a released :class:`HubStructure`'s ball table and
:class:`Rng`, so the equivalence tests pin the array code against
them.  The partitioner covers undirected
graphs: a directed graph's regions now grow along arcs in both
directions, which this one does not.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.apsp.hubs import HubStructure
from repro.graphs.graph import Edge, Vertex, WeightedGraph
from repro.rng import Rng
from repro.serving.routing import ShardPlan


def reference_structure(
    graph: WeightedGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, arc_edge)`` of the compiled graph."""
    vertices = tuple(graph.vertex_list())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    m = graph.num_edges
    arcs_per_edge = 1 if graph.directed else 2
    num_arcs = m * arcs_per_edge
    tails = np.empty(num_arcs, dtype=np.int64)
    heads = np.empty(num_arcs, dtype=np.int64)
    arc_edge = np.empty(num_arcs, dtype=np.int64)
    for e, (u, v, _) in enumerate(graph.edges()):
        ui, vi = index[u], index[v]
        pos = e * arcs_per_edge
        tails[pos], heads[pos], arc_edge[pos] = ui, vi, e
        if not graph.directed:
            tails[pos + 1], heads[pos + 1] = vi, ui
            arc_edge[pos + 1] = e
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    if num_arcs:
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads[order], arc_edge[order]


def reference_cut(
    graph: WeightedGraph, assignment: Mapping[Vertex, int]
) -> Tuple[Tuple[Vertex, ...], Tuple[Edge, ...]]:
    """``(boundary, cut_edges)`` of an assignment, from one walk over
    the edges: the cut edges in edge order, the boundary (the relay's
    site order) in vertex insertion order."""
    for vertex in graph.vertices():
        assert vertex in assignment, vertex
    boundary_set = set()
    boundary: List[Vertex] = []
    cut_edges = []
    for u, v, _ in graph.edges():
        if assignment[u] != assignment[v]:
            cut_edges.append((u, v))
            for endpoint in (u, v):
                if endpoint not in boundary_set:
                    boundary_set.add(endpoint)
                    boundary.append(endpoint)
    order = {vert: i for i, vert in enumerate(graph.vertices())}
    boundary.sort(key=lambda vert: order[vert])
    return tuple(boundary), tuple(cut_edges)


def reference_partition(
    graph: WeightedGraph, shards: int, seed: int = 0
) -> Dict[Vertex, int]:
    """``partition_graph``'s assignment on a connected undirected
    graph: before every step, the smallest open region (ties to the
    lower id) grows by one vertex."""
    assert not graph.directed
    indptr, indices, _ = reference_structure(graph)
    n = len(indptr) - 1
    rng = Rng(seed)
    shard_of = np.full(n, -1, dtype=np.int64)
    seeds = rng.sample(range(n), shards)
    sizes = [1] * shards
    frontiers: List[deque] = []
    for shard, seed_vertex in enumerate(seeds):
        shard_of[seed_vertex] = shard
        frontiers.append(
            deque(
                int(x)
                for x in indices[indptr[seed_vertex] : indptr[seed_vertex + 1]]
            )
        )
    open_shards = set(range(shards))
    assigned = shards
    while assigned < n:
        assert open_shards, "region growing stranded unassigned vertices"
        shard = min(open_shards, key=lambda i: (sizes[i], i))
        frontier = frontiers[shard]
        grew = False
        while frontier:
            v = frontier.popleft()
            if shard_of[v] != -1:
                continue
            shard_of[v] = shard
            sizes[shard] += 1
            assigned += 1
            frontier.extend(
                int(x) for x in indices[indptr[v] : indptr[v + 1]]
            )
            grew = True
            break
        if not grew:
            open_shards.discard(shard)
    vertices = graph.vertex_list()
    return {vertices[i]: int(shard_of[i]) for i in range(n)}


def reference_subgraph(
    graph: WeightedGraph, keep
) -> WeightedGraph:
    """``WeightedGraph.subgraph`` through ``add_vertex`` and
    ``add_edge``."""
    keep_set = set(keep)
    sub = WeightedGraph(directed=graph.directed)
    for v in graph.vertices():
        if v in keep_set:
            sub.add_vertex(v)
    for u, v, weight in graph.edges():
        if u in keep_set and v in keep_set:
            sub.add_edge(u, v, weight)
    return sub


def reference_router_tables(
    plan: ShardPlan, graph: WeightedGraph
) -> Dict[str, object]:
    """The shard router's public tables, filled one edge and one
    boundary vertex at a time."""
    plan_of = plan.shard_of
    boundary, _ = reference_cut(graph, plan.assignment())
    edge_keys = graph.edge_list()
    edge_shard = np.empty(len(edge_keys), dtype=np.int64)
    for e, (u, v) in enumerate(edge_keys):
        su, sv = plan_of(u), plan_of(v)
        edge_shard[e] = su if su == sv else -1
    tenant_edges = [
        np.flatnonzero(edge_shard == shard)
        for shard in range(plan.num_shards)
    ]
    shard_boundary = []
    site_pos = []
    site_shard = np.asarray(
        [plan_of(v) for v in boundary], dtype=np.int64
    )
    for shard in range(plan.num_shards):
        positions = np.flatnonzero(site_shard == shard)
        site_pos.append(positions)
        shard_boundary.append(
            tuple(boundary[int(p)] for p in positions)
        )
    site_local = np.zeros(len(boundary), dtype=np.int64)
    for positions in site_pos:
        site_local[positions] = np.arange(len(positions))
    return {
        "_edge_shard": edge_shard,
        "tenant_edges": tenant_edges,
        "_site_shard": site_shard,
        "_site_pos": site_pos,
        "_shard_boundary": shard_boundary,
        "_site_local": site_local,
    }


def reference_relay_buckets(
    plan: ShardPlan, graph: WeightedGraph, structure: HubStructure
) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The relay ball table bucketed by shard pair, one entry at a
    time: each entry oriented from the lower shard id to the higher,
    as local positions in the two shards' boundary lists."""
    tables = reference_router_tables(plan, graph)
    site_shard, site_local = tables["_site_shard"], tables["_site_local"]
    m = structure.num_sites
    buckets: Dict[Tuple[int, int], List[List[float]]] = {}
    ball = zip(structure.ball_keys.tolist(), structure.ball_values.tolist())
    for key, value in ball:
        lo, hi = divmod(key, m)
        pair = (int(site_shard[lo]), int(site_shard[hi]))
        if pair[0] > pair[1]:
            pair = (pair[1], pair[0])
            lo, hi = hi, lo
        rows = buckets.setdefault(pair, [[], [], []])
        rows[0].append(int(site_local[lo]))
        rows[1].append(int(site_local[hi]))
        rows[2].append(value)
    return {
        pair: (
            np.asarray(rows[0], dtype=np.int64),
            np.asarray(rows[1], dtype=np.int64),
            np.asarray(rows[2], dtype=float),
        )
        for pair, rows in buckets.items()
    }


def reference_accepts(
    vertices: List, edge_keys: List, graph: WeightedGraph
) -> bool:
    """Whether the full-refresh topology check passes ``graph``, for
    a service built over a graph with vertices ``vertices`` and
    canonical edges ``edge_keys``."""
    return (
        graph.num_vertices == len(vertices)
        and graph.num_edges == len(edge_keys)
        and all(graph.has_edge(u, v) for u, v in edge_keys)
        and all(graph.has_vertex(v) for v in vertices)
    )
