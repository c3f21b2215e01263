"""The sharded service's topology derivations against the per-edge
Python oracle in :mod:`topology_reference`.

The CSR arrays, the shard plans (as JSON bytes), the boundary and cut
edges the shard router derives from a plan, the tenant subgraphs
(vertex, edge and neighbour orders and weights),
the shard router's tables, its relay ball buckets and the
full-refresh topology check must
equal what the reference derives, on road grids, random connected
graphs with shuffled string labels and tuple-labelled grids built in
a shuffled order, at 1-8 shards and partition seeds 0-9.  Nothing here
needs scipy.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import BudgetLedger, PrivacyParams, Rng
from repro.apsp.hubs import (
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)
from repro.engine.csr import CSRGraph
from repro.exceptions import GraphError
from repro.graphs.graph import WeightedGraph
from repro.serving import DistanceService
from repro.serving.routing import ShardPlan, _ShardRouter, partition_graph
from repro.serving.service import _refresh_weights
from repro.telemetry import NULL_TELEMETRY
from repro.workloads import grid_road_network

from topology_reference import (
    reference_accepts,
    reference_cut,
    reference_partition,
    reference_relay_buckets,
    reference_router_tables,
    reference_structure,
    reference_subgraph,
)

SHARDS = range(1, 9)
SEEDS = range(10)


def _random_connected(n: int, extra: int, seed: int, directed=False):
    """A random spanning tree plus ``extra`` chords on string labels,
    with vertices and edges inserted in a shuffled order and each
    edge in a random orientation."""
    gen = random.Random(seed)
    labels = [f"v{i}" for i in gen.sample(range(10 * n), n)]
    pairs = {
        frozenset((labels[i], labels[gen.randrange(i)]))
        for i in range(1, n)
    }
    while len(pairs) < n - 1 + extra:
        u, v = gen.sample(labels, 2)
        pairs.add(frozenset((u, v)))
    edges = [tuple(gen.sample(sorted(p), 2)) for p in pairs]
    edges.sort()
    gen.shuffle(edges)
    order = labels[:]
    gen.shuffle(order)
    graph = WeightedGraph(directed=directed)
    for v in order:
        graph.add_vertex(v)
    for u, v in edges:
        graph.add_edge(u, v, gen.uniform(0.5, 3.0))
    return graph


def _shuffled_grid(rows: int, cols: int, seed: int, directed=False):
    """A ``(row, col)``-labelled grid whose edges are inserted in a
    shuffled order, each in a random orientation."""
    gen = random.Random(seed)
    edges = [
        ((r, c), (r + dr, c + dc))
        for r in range(rows)
        for c in range(cols)
        for dr, dc in ((0, 1), (1, 0))
        if r + dr < rows and c + dc < cols
    ]
    gen.shuffle(edges)
    graph = WeightedGraph(directed=directed)
    for u, v in edges:
        if gen.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v, gen.uniform(1.0, 2.0))
    return graph


GRAPHS = {
    "road-6x6": lambda: grid_road_network(6, 6, Rng(3)).graph,
    "road-12x9": lambda: grid_road_network(12, 9, Rng(4)).graph,
    "strings-60": lambda: _random_connected(60, 40, seed=5),
    "strings-150": lambda: _random_connected(150, 60, seed=6),
    "tuples-8x11": lambda: _shuffled_grid(8, 11, seed=7),
}

DIRECTED = {
    "strings-directed": lambda: _random_connected(
        50, 40, seed=8, directed=True
    ),
    "tuples-directed": lambda: _shuffled_grid(6, 7, seed=9, directed=True),
}


def _graph_state(graph: WeightedGraph):
    """Everything insertion order decides."""
    return (
        graph.directed,
        graph.vertex_list(),
        list(graph.weights().items()),
        [list(graph.adjacent(v)) for v in graph.vertices()],
        [list(graph.neighbors(v)) for v in graph.vertices()],
        [list(graph.predecessors(v)) for v in graph.vertices()],
    )


def _assert_same_arrays(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


def _router_cut(plan: ShardPlan, graph: WeightedGraph):
    """``(boundary, cut_edges)`` as the shard router derives them: the
    relay sites as vertices, the cut edges as edge keys."""
    router = _ShardRouter(plan, graph, [])
    assert router.boundary.dtype == np.int64
    vertices, edges = CSRGraph.from_graph(graph).vertices, graph.edge_list()
    cut = np.flatnonzero(router._edge_shard == -1)
    return (
        tuple(vertices[i] for i in router.boundary.tolist()),
        tuple(edges[e] for e in cut.tolist()),
    )


@pytest.mark.parametrize("name", [*GRAPHS, *DIRECTED])
def test_csr_arrays_match_reference(name):
    graph = {**GRAPHS, **DIRECTED}[name]()
    csr = CSRGraph.from_graph(graph)
    for got, want in zip(
        (csr.indptr, csr.indices, csr.arc_edge), reference_structure(graph)
    ):
        _assert_same_arrays(got, want)
    edge_u, edge_v = csr.edge_endpoints
    assert [
        (csr.vertices[u], csr.vertices[v])
        for u, v in zip(edge_u.tolist(), edge_v.tolist())
    ] == graph.edge_list()
    assert not edge_u.flags.writeable and not edge_v.flags.writeable


def test_csr_arrays_of_edgeless_graphs():
    for graph in (WeightedGraph(), WeightedGraph(directed=True)):
        graph.add_vertex("lonely")
        csr = CSRGraph.from_graph(graph)
        for got, want in zip(
            (csr.indptr, csr.indices, csr.arc_edge),
            reference_structure(graph),
        ):
            _assert_same_arrays(got, want)
        assert [a.tolist() for a in csr.edge_endpoints] == [[], []]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_partition_plans_match_reference_bytes(name):
    """The plans' bytes, and the relay sites and cut edges the router
    derives from them: the sites are the boundary a plan used to
    store, in the same order."""
    graph = GRAPHS[name]()
    for shards in SHARDS:
        for seed in SEEDS:
            plan = partition_graph(graph, shards, seed=seed)
            assignment = reference_partition(graph, shards, seed=seed)
            want = ShardPlan(shards, assignment, seed=seed)
            assert plan.to_json() == want.to_json(), (shards, seed)
            assert plan.members(0) == want.members(0)
            assert _router_cut(plan, graph) == reference_cut(
                graph, assignment
            ), (shards, seed)


@pytest.mark.parametrize("name", [*GRAPHS, *DIRECTED])
def test_router_cut_of_any_assignment_matches_reference(name):
    graph = {**GRAPHS, **DIRECTED}[name]()
    gen = random.Random(11)
    for shards in SHARDS:
        assignment = {v: gen.randrange(shards) for v in graph.vertices()}
        # Every shard gets a vertex, so the plan is valid.
        for shard, v in zip(range(shards), graph.vertices()):
            assignment[v] = shard
        plan = ShardPlan(shards, assignment, seed=shards)
        assert _router_cut(plan, graph) == reference_cut(graph, assignment)


@pytest.mark.parametrize("name", [*GRAPHS, *DIRECTED])
def test_subgraphs_match_reference(name):
    graph = {**GRAPHS, **DIRECTED}[name]()
    gen = random.Random(12)
    vertices = graph.vertex_list()
    keeps = [
        vertices,
        vertices[: len(vertices) // 3],
        gen.sample(vertices, len(vertices) // 2),
        [vertices[-1]],
        [],
    ]
    if not graph.directed:
        plan = partition_graph(graph, 4, seed=1)
        keeps += [plan.members(shard) for shard in range(4)]
    for keep in keeps:
        assert _graph_state(graph.subgraph(keep)) == _graph_state(
            reference_subgraph(graph, keep)
        )


@pytest.mark.parametrize("name", [*GRAPHS, *DIRECTED])
def test_router_tables_match_reference(name):
    graph = {**GRAPHS, **DIRECTED}[name]()
    gen = random.Random(13)
    for shards in range(2, 9):
        if graph.directed:
            assignment = {
                v: gen.randrange(shards) for v in graph.vertices()
            }
            for shard, v in zip(range(shards), graph.vertices()):
                assignment[v] = shard
            plan = ShardPlan(shards, assignment)
        else:
            plan = partition_graph(graph, shards, seed=shards)
        router = _ShardRouter(plan, graph, [])
        for attr, want in reference_router_tables(plan, graph).items():
            got = getattr(router, attr)
            if isinstance(want, np.ndarray):
                _assert_same_arrays(got, want)
            elif attr == "_shard_boundary":
                assert got == want
            else:
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    _assert_same_arrays(a, b)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_relay_buckets_match_reference(name):
    graph = GRAPHS[name]()
    csr = CSRGraph.from_graph(graph)
    for shards in range(2, 9):
        plan = partition_graph(graph, shards, seed=shards)
        router = _ShardRouter(plan, graph, [])
        m = len(router.boundary)
        structure = build_hub_structure(
            csr, router.boundary, default_hub_count(m),
            default_ball_size(m), 1.0, 0.0, Rng(shards),
        )
        router.set_relay(structure)
        want = reference_relay_buckets(plan, graph, structure)
        got = router._relay_ball_cross
        assert got.keys() == want.keys()
        for pair, arrays in want.items():
            assert len(got[pair]) == len(arrays)
            for a, b in zip(got[pair], arrays):
                _assert_same_arrays(a, b)


def _variants(graph: WeightedGraph, gen: random.Random):
    """Graphs the full-refresh check must accept or refuse: the same
    lists, edges reordered, edges flipped, an edge swapped for a
    non-edge, an extra edge, a vertex renamed, an extra vertex, an
    edge dropped."""
    vertices, edges = graph.vertex_list(), list(graph.edges())

    def build(vs, es):
        g = WeightedGraph(directed=graph.directed)
        for v in vs:
            g.add_vertex(v)
        for u, v, w in es:
            g.add_edge(u, v, w)
        return g

    yield graph.with_weights([w * 2 for _, _, w in edges])
    shuffled = edges[:]
    gen.shuffle(shuffled)
    yield build(vertices, shuffled)
    yield build(vertices[::-1], edges)
    yield build(vertices, [(v, u, w) for u, v, w in edges])
    yield build(vertices, [(v, u, w) for u, v, w in edges[:3]] + edges[3:])
    present = {frozenset((u, v)) for u, v, _ in edges}
    absent = next(
        (a, b)
        for a in vertices
        for b in vertices
        if a != b and frozenset((a, b)) not in present
    )
    yield build(vertices, edges[1:] + [(*absent, 1.0)])
    yield build(vertices, edges + [(*absent, 1.0)])
    renamed = {vertices[0]: "renamed"}
    yield build(
        [renamed.get(v, v) for v in vertices],
        [(renamed.get(u, u), renamed.get(v, v), w) for u, v, w in edges],
    )
    yield build(vertices + ["extra"], edges)
    yield build(vertices, edges[:-1])
    yield build(
        vertices[:-1] + ["extra"],
        edges[:-1] + [(vertices[0], "extra", 1.0)],
    )


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("name", [*GRAPHS, *DIRECTED])
def test_topology_check_refuses_what_the_reference_refuses(name, shards):
    """The helper that reads every refresh graph, and (undirected) the
    refresh of a service of either shape, accept exactly what the
    reference accepts; an accepted graph's weights come out in the
    service's edge order, and a refused one spends nothing."""
    graph = {**GRAPHS, **DIRECTED}[name]()
    if graph.directed:
        plan = ShardPlan(
            shards, {v: i % shards for i, v in enumerate(graph.vertices())}
        )
        service = None
    else:
        plan = partition_graph(graph, shards, seed=2)
        service = DistanceService(
            graph, 1e6, Rng(15), plan=plan, mechanism="all-pairs-basic",
            ledger=BudgetLedger(PrivacyParams(1e9)),
            telemetry=NULL_TELEMETRY,
        )
    edge_keys = graph.edge_list()
    verdicts = []
    for variant in _variants(graph, random.Random(14)):
        want = reference_accepts(plan, edge_keys, variant)
        try:
            weights = _refresh_weights(graph, variant)
            got = True
        except GraphError:
            got = False
        assert got == want
        if got:
            _assert_same_arrays(
                weights,
                np.asarray([variant.weight(u, v) for u, v in edge_keys]),
            )
        if service is not None:
            records = service.ledger.records()
            try:
                service.refresh(variant)
                served = True
            except GraphError:
                served = False
                assert service.ledger.records() == records
            assert served == want
        verdicts.append(got)
    # Both outcomes are exercised: the same lists, the reordered edge
    # and vertex lists (and, undirected, the flipped edges) pass.
    assert verdicts[:3] == [True, True, True]
    assert verdicts[3:5] == [not graph.directed] * 2
    assert not any(verdicts[5:])
