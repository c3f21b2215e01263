"""Epoch refreshes over one compiled topology.

A service keeps its own graph and re-weights it on every refresh, so
the graph keeps its compiled structure and topology memo and the hub
builds of every later epoch skip their hop-ball searches.  It compiles
the graph it is handed before copying it, so a second service on the
same graph object shares that compile, while services on distinct
graph objects share nothing.  A refresh graph with the same vertex
and edge sets in another order is read into the service's order; any
other topology is refused.  Each release is bit for bit what the
service releases with no reuse at all.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import BudgetLedger, PrivacyParams, Rng, WeightedGraph
from repro.algorithms import traversal
from repro.apsp import hubs as hubs_module
from repro.apsp.hubs import HubSetRelease
from repro.engine import CSRGraph
from repro.engine import csr as csr_module
from repro.engine import frontier as frontier_module
from repro.exceptions import GraphError
from repro.graphs import generators
from repro.serving import DistanceService
from repro.telemetry import NULL_TELEMETRY

SEED = 1616


def _weights(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 2.0, count)


def _grid(rows: int, seed: int) -> WeightedGraph:
    """A fresh, never compiled weighted grid."""
    graph = generators.grid_graph(rows, rows)
    return graph.with_weights(_weights(seed, graph.num_edges))


def _rebuilt(graph: WeightedGraph, edges) -> WeightedGraph:
    """A new graph on ``graph``'s vertices, in order, with ``edges``."""
    out = WeightedGraph(directed=graph.directed)
    for v in graph.vertices():
        out.add_vertex(v)
    for u, v, w in edges:
        out.add_edge(u, v, w)
    return out


def _counting_searches(monkeypatch) -> list:
    searches = []
    search = hubs_module._ball_trees

    def counting(unit, site_idx, ball_size):
        searches.append(len(site_idx))
        return search(unit, site_idx, ball_size)

    monkeypatch.setattr(hubs_module, "_ball_trees", counting)
    return searches


def _assert_same_release(got, want) -> None:
    assert np.array_equal(got.hub_positions, want.hub_positions)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.ball_keys.tobytes() == want.ball_keys.tobytes()
    assert got.ball_values.tobytes() == want.ball_values.tobytes()


class TestUnshardedRefresh:
    def test_same_topology_takes_the_compiled_structure(self, monkeypatch):
        searches = _counting_searches(monkeypatch)
        first = _grid(10, 0)
        service = DistanceService(
            first, 1.0, Rng(SEED), mechanism="hub-set",
            telemetry=NULL_TELEMETRY, ledger=BudgetLedger(PrivacyParams(9.0)),
        )
        indptr = CSRGraph.from_graph(service._graph).indptr
        for epoch in range(1, 4):
            graph = _grid(10, epoch)
            service.refresh(graph)
            assert CSRGraph.from_graph(service._graph).indptr is indptr
            # A refresh graph is read, never compiled.
            assert graph._structure is None and graph._compiled is None
        service.refresh_shard(0, _weights(9, first.num_edges))
        assert CSRGraph.from_graph(service._graph).indptr is indptr
        assert searches == [first.num_vertices]

    def test_reordered_topology_is_read_into_the_service_order(self):
        first, second = _grid(8, 0), _grid(8, 1)
        reordered = _rebuilt(second, list(second.edges())[::-1])
        service = DistanceService(
            first, 1e6, Rng(SEED), mechanism="hub-set",
            telemetry=NULL_TELEMETRY,
        )
        indptr = CSRGraph.from_graph(service._graph).indptr
        service.refresh(reordered)
        assert CSRGraph.from_graph(service._graph).indptr is indptr
        # The same rng stream, the second epoch built on the same
        # weights in the service's order.
        rng = Rng(SEED)
        HubSetRelease(first.copy(), 1e6, rng)
        want = HubSetRelease(second.copy(), 1e6, rng).structure
        _assert_same_release(service.synopsis.structure, want)

    @pytest.mark.parametrize("change", ["removed", "rewired"])
    def test_changed_topology_is_refused(self, change):
        first = _grid(8, 0)
        edges = list(_grid(8, 1).edges())
        # An interior edge: the grid stays connected without it.
        drop = next(
            i for i, (u, v, _) in enumerate(edges)
            if u == (3, 3) and v == (3, 4)
        )
        edges = edges[:drop] + edges[drop + 1:]
        if change == "rewired":
            edges.append(((0, 0), (7, 7), 1.0))
        service = DistanceService(
            first, 1e6, Rng(SEED), mechanism="hub-set",
            telemetry=NULL_TELEMETRY,
        )
        released = service.synopsis
        with pytest.raises(GraphError, match="differs from the service's"):
            service.refresh(_rebuilt(first, edges))
        assert service.epoch == 0
        assert service.synopsis is released


@pytest.mark.parametrize("shards", [1, 4])
def test_refreshes_search_connectivity_once_per_topology(monkeypatch, shards):
    # One search per compiled topology: the full graph's when it is
    # partitioned, and each tenant graph's; none by the dict-based BFS.
    searches = []
    search = frontier_module._weakly_connected

    def counting(unit):
        searches.append(unit.n)
        return search(unit)

    monkeypatch.setattr(frontier_module, "_weakly_connected", counting)
    monkeypatch.setattr(
        traversal,
        "connected_components",
        lambda graph: pytest.fail("a build ran the dict-based BFS"),
    )
    service = DistanceService(
        _grid(8, 0), 1e6, Rng(SEED), shards=shards, mechanism="hub-set",
        telemetry=NULL_TELEMETRY, ledger=BudgetLedger(PrivacyParams(1e8)),
    )
    assert len(searches) == (1 if shards == 1 else shards + 1)
    setup = list(searches)
    for epoch in range(1, 4):
        service.refresh(_grid(8, epoch))
        service.refresh_shard(0)
    assert searches == setup


def _transcript(shards: int, mechanism: str) -> str:
    """Three epochs of refresh, point answers, a regional update and
    batch answers, hashed."""
    first = _grid(8, 0)
    vertices = first.vertex_list()
    gen = np.random.default_rng(SEED)
    pairs = [
        (vertices[a], vertices[b])
        for a, b in gen.integers(0, len(vertices), (120, 2))
    ]
    service = DistanceService(
        first, 1e6, Rng(SEED), shards=shards, mechanism=mechanism,
        weight_bound=3.0, telemetry=NULL_TELEMETRY,
        ledger=BudgetLedger(PrivacyParams(1e8)),
    )
    digest = hashlib.sha256()
    for epoch in range(1, 4):
        graph = _grid(8, epoch)
        service.refresh(graph)
        digest.update(
            np.asarray([service.query(s, t) for s, t in pairs[:60]]).tobytes()
        )
        weights = graph.weight_vector()
        plan = service.plan
        for e, (u, v) in enumerate(graph.edge_list()):
            if plan is None or 0 in (plan.shard_of(u), plan.shard_of(v)):
                weights[e] *= 1.25
        service.refresh_shard(0, weights)
        digest.update(
            np.asarray(service.query_batch(pairs[60:]).answers).tobytes()
        )
        if service.relay is not None:
            digest.update(service.relay.matrix.tobytes())
    return digest.hexdigest()


def _ball_trees(service: DistanceService):
    """The service graph's compiled form and the ``("ball_trees", ...)``
    memo entry of its hub build (the relay's, when sharded)."""
    csr = CSRGraph.from_graph(service._graph)
    (key,) = [k for k in csr._structure.memo if k[0] == "ball_trees"]
    return csr, csr.topology_memo(key, lambda unit: pytest.fail(key))


@pytest.mark.parametrize("shards", [1, 4])
def test_second_service_on_one_graph_shares_the_compile(monkeypatch, shards):
    searches = _counting_searches(monkeypatch)
    graph = _grid(8, 0)
    first, second = (
        DistanceService(
            graph, 1e6, Rng(SEED), shards=shards, mechanism="hub-set",
            telemetry=NULL_TELEMETRY,
        )
        for _ in range(2)
    )
    (csr, trees), (again, shared) = _ball_trees(first), _ball_trees(second)
    assert again.indptr is csr.indptr
    assert shared is trees
    # The second service searched only its own tenants' balls, and
    # released what the first did.
    assert len(searches) == (1 if shards == 1 else 2 * shards + 1)
    pairs = list(zip(graph.vertex_list(), graph.vertex_list()[::-1]))
    assert (
        second.query_batch(pairs).answers == first.query_batch(pairs).answers
    )


def test_services_on_distinct_graphs_share_nothing():
    # Re-weighted clones of an uncompiled graph, as every perfbench
    # setup gets: each service compiles its own.
    base = generators.grid_graph(8, 8)
    first, second = (
        _ball_trees(
            DistanceService(
                base.with_weights(_weights(seed, base.num_edges)),
                1e6, Rng(SEED), mechanism="hub-set",
                telemetry=NULL_TELEMETRY,
            )
        )
        for seed in (0, 1)
    )
    assert first[0].indptr is not second[0].indptr
    assert first[1] is not second[1]
    assert base._structure is None and base._compiled is None


def _counting_compiles(monkeypatch) -> list:
    compiles = []
    build = csr_module._build_structure

    def counting(graph):
        compiles.append(graph)
        return build(graph)

    monkeypatch.setattr(csr_module, "_build_structure", counting)
    return compiles


@pytest.mark.parametrize("mechanism", ["hub-set", "hub-bounded"])
@pytest.mark.parametrize("shards", [1, 4])
def test_reuse_changes_no_release(monkeypatch, shards, mechanism):
    compiles = _counting_compiles(monkeypatch)
    reused = _transcript(shards, mechanism)
    # One compile of the service's graph, and one per tenant subgraph.
    setup = 1 if shards == 1 else shards + 1
    assert len(compiles) == setup
    monkeypatch.setattr(
        CSRGraph,
        "topology_memo",
        lambda self, key, compute: compute(
            self.with_weights(np.ones(self.num_edges))
        ),
    )
    with_weights = WeightedGraph.with_weights

    def without_handover(self, new_weights):
        clone = with_weights(self, new_weights)
        clone._structure = clone._compiled = None
        return clone

    monkeypatch.setattr(WeightedGraph, "with_weights", without_handover)
    del compiles[:]
    assert _transcript(shards, mechanism) == reused
    # Each of the three epochs compiled afresh: the refreshed graphs
    # (the service's and every tenant's), then the regional update's.
    per_epoch = 2 if shards == 1 else shards + 3
    assert len(compiles) == setup + 3 * per_epoch


def test_sharded_refresh_takes_plan_edges_in_any_order():
    """A refresh graph with the plan's edges reversed in order and
    orientation serves what the plan-order graph serves, and a
    regional update in the service's edge order passes the regional
    check."""
    first = _grid(8, 0)
    canonical = _grid(8, 1)
    flipped = _rebuilt(
        canonical, [(v, u, w) for u, v, w in list(canonical.edges())[::-1]]
    )
    vertices = first.vertex_list()
    pairs = [(vertices[i], vertices[-1 - i]) for i in range(32)]
    answers = []
    for graph in (canonical, flipped):
        service = DistanceService(
            first, 1e6, Rng(SEED), shards=4, mechanism="hub-set",
            telemetry=NULL_TELEMETRY,
        )
        service.refresh(graph)
        plan = service.plan
        weights = graph.weight_vector(first.edge_list())
        for e, (u, v) in enumerate(first.edge_list()):
            if plan.shard_of(u) == plan.shard_of(v) == 2:
                weights[e] *= 1.5
        service.refresh_shard(2, weights)
        answers.append(service.query_batch(pairs).answers)
    assert answers[0] == answers[1]
