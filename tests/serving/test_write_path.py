"""Writes re-weight arrays, not Python graphs.

In Sealfon's model the topology is fixed and an epoch is a new weight
function, so no write of a forced ``hub-set`` service -- ``serve()``,
``refresh(graph)`` or ``refresh_shard(i, weights)`` -- walks a graph's
neighbours: none builds adjacency dicts for the caller's graph, the
service's graph or any tenant.  ``refresh_shard`` reads its weights
as one vector, whichever form they come in, and refuses a bad update
before it spends, exactly as before.

The service keeps its own copy of the graph it is built with, in that
graph's vertex and edge order.  A refresh graph with the same vertex
and edge sets in any order is read into that order, any other
topology is refused before anything spends, and a caller's changes to
a graph it handed over reach no release.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import BudgetLedger, PrivacyParams, Rng, WeightedGraph
from repro.exceptions import GraphError, WeightError
from repro.serving import ServingConfig, serve
from repro.telemetry import NULL_TELEMETRY
from repro.workloads import grid_road_network

ROWS = 16
SEED = 2727
SHARDS = [1, 4]


def _road(seed: int) -> WeightedGraph:
    return grid_road_network(ROWS, ROWS, Rng(seed)).graph


def _serve(graph: WeightedGraph, shards: int):
    # A shared ledger is never rotated, and its budget covers the
    # unsharded tenant's third spend of the test's epoch.
    return serve(
        graph,
        ServingConfig(mechanism="hub-set", eps=1.0, shards=shards),
        Rng(SEED),
        ledger=BudgetLedger(PrivacyParams(10.0)),
        telemetry=NULL_TELEMETRY,
    )


def _regional(service, graph: WeightedGraph, shard: int) -> np.ndarray:
    """``graph``'s weights with every edge inside ``shard`` 1.5x as
    slow (every edge when unsharded)."""
    weights = graph.weight_vector()
    plan = service.plan
    for e, (u, v) in enumerate(graph.edge_list()):
        if plan is None or plan.shard_of(u) == plan.shard_of(v) == shard:
            weights[e] *= 1.5
    return weights


def _outside(service, graph: WeightedGraph, shard: int) -> int:
    """The position of an edge inside another shard than ``shard``."""
    plan = service.plan
    return next(
        e
        for e, (u, v) in enumerate(graph.edge_list())
        if plan.shard_of(u) == plan.shard_of(v) != shard
    )


def _released(service, shard: int):
    """What ``shard``'s refresh releases: its synopsis document and,
    sharded, the relay's arrays."""
    synopsis = service.shard_synopses[shard].to_json()
    relay = service.relay
    if relay is None:
        return synopsis, None
    return synopsis, (
        relay.hub_positions.tobytes(),
        relay.matrix.tobytes(),
        relay.ball_keys.tobytes(),
        relay.ball_values.tobytes(),
    )


@pytest.mark.parametrize("shards", SHARDS)
def test_writes_build_no_adjacency(monkeypatch, shards):
    built = []
    build = WeightedGraph._build_adjacency

    def counting(graph):
        built.append(graph)
        build(graph)

    monkeypatch.setattr(WeightedGraph, "_build_adjacency", counting)
    first, second = _road(1), _road(2)
    service = _serve(first, shards)
    assert built == []
    service.refresh(second)
    assert built == []
    shard = shards - 1
    service.refresh_shard(shard, _regional(service, second, shard))
    assert built == []
    # The writes released and serve: a walk still builds on demand.
    assert service.query((0, 0), (ROWS - 1, ROWS - 1)) >= 0.0
    second.degree((0, 0))
    assert built == [second]


@pytest.mark.parametrize("shards", SHARDS)
def test_every_weight_form_releases_the_same(shards):
    graph = _road(3)
    shard = shards - 1
    released = {}
    for form in ("array", "list", "mapping"):
        service = _serve(graph, shards)
        weights = _regional(service, graph, shard)
        if form == "list":
            weights = weights.tolist()
        elif form == "mapping":
            # Only the changed edges, every other one keyed in its
            # reverse orientation.
            current = graph.weight_vector()
            weights = {
                (key if e % 2 else key[::-1]): weight
                for e, (key, weight) in enumerate(
                    zip(graph.edge_list(), weights.tolist())
                )
                if weight != current[e]
            }
        service.refresh_shard(shard, weights)
        released[form] = _released(service, shard)
    assert released["list"] == released["array"]
    assert released["mapping"] == released["array"]


class TestRefusedBeforeSpending:
    """Each refusal names what the parent's refusal named and leaves
    the ledger as it was."""

    @staticmethod
    def _refused(service, shard, weights, error, message):
        records = len(service.ledger.records())
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            service.refresh_shard(shard, weights)
        assert len(service.ledger.records()) == records

    @pytest.mark.parametrize("form", ["array", "mapping"])
    def test_change_outside_the_shard(self, form):
        graph = _road(4)
        service = _serve(graph, 4)
        e = _outside(service, graph, 1)
        edge = graph.edge_list()[e]
        weights = graph.weight_vector()
        weights[e] += 1.0
        given = weights if form == "array" else {edge: weights[e]}
        self._refused(
            service,
            1,
            given,
            GraphError,
            f"refresh_shard(1) may only change weights of shard-1 edges "
            f"and cut edges; edge {edge!r} belongs elsewhere (use "
            f"refresh() for a full epoch)",
        )

    @pytest.mark.parametrize("shards", SHARDS)
    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_nan_or_negative_weight(self, shards, bad):
        graph = _road(5)
        service = _serve(graph, shards)
        shard = shards - 1
        weights = _regional(service, graph, shard)
        # The last edge of the shard, so an earlier edge would be named
        # if the check read another order.
        e = np.flatnonzero(weights != graph.weight_vector())[-1]
        u, v = graph.edge_list()[e]
        for given in (weights.copy(), {(v, u): bad}):
            if isinstance(given, np.ndarray):
                given[e] = bad
            self._refused(
                service,
                shard,
                given,
                WeightError,
                f"edge ({u!r}, {v!r}) has weight {bad}; weights must be "
                f"finite and non-negative",
            )


# ----------------------------------------------------------------------
# The service's own graph, in one vertex and edge order
# ----------------------------------------------------------------------

SMALL = 8
EPS = 1e6


def _small(seed: int) -> WeightedGraph:
    return grid_road_network(SMALL, SMALL, Rng(seed)).graph


def _rebuilt(vertices, edges) -> WeightedGraph:
    """One ``add_vertex`` per vertex, then one ``add_edge`` per
    ``(u, v, weight)``, in order."""
    graph = WeightedGraph()
    for v in vertices:
        graph.add_vertex(v)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


def _service(graph: WeightedGraph, shards: int, ledger=None):
    return serve(
        graph,
        ServingConfig(mechanism="hub-set", eps=EPS, shards=shards),
        Rng(SEED),
        ledger=ledger,
        telemetry=NULL_TELEMETRY,
    )


def _pairs(graph: WeightedGraph):
    vertices = graph.vertex_list()
    return [(vertices[i], vertices[-1 - i]) for i in range(32)]


def _state(service, pairs):
    """Everything a write releases: the tenants' graphs and synopses,
    the relay's arrays and the answers."""
    relay = service.relay
    return (
        [list(t.graph.weights().items()) for t in service._tenants],
        [synopsis.to_json() for synopsis in service.shard_synopses],
        None
        if relay is None
        else (
            relay.hub_positions.tobytes(),
            relay.matrix.tobytes(),
            relay.ball_keys.tobytes(),
            relay.ball_values.tobytes(),
        ),
        service.query_batch(pairs).answers,
    )


@pytest.mark.parametrize("shards", SHARDS)
def test_reverse_vertex_order_refreshes_like_plan_order(shards):
    first, second = _small(1), _small(2)
    reversed_vertices = _rebuilt(
        second.vertex_list()[::-1], list(second.edges())
    )
    pairs = _pairs(first)
    states = []
    for graph in (second, reversed_vertices):
        service = _service(first, shards)
        service.refresh(graph)
        states.append(_state(service, pairs))
    assert states[0] == states[1]


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("change", ["scaled", "negative"])
def test_changes_after_the_handover_reach_no_release(shards, change):
    graph = _small(3)
    untouched = _service(
        graph.copy(), shards, BudgetLedger(PrivacyParams(1e8))
    )
    service = _service(graph, shards, BudgetLedger(PrivacyParams(1e8)))
    pairs = _pairs(graph)
    plan = service.plan
    u, v = next(
        (u, v)
        for u, v in graph.edge_list()
        if plan is None or plan.shard_of(u) == plan.shard_of(v) == 1
    )
    weight = graph.weight(u, v)
    graph.set_weight(u, v, weight * 50 if change == "scaled" else -0.5)
    for write in (
        lambda s: s.refresh_shard(0),
        lambda s: s.refresh(),
    ):
        write(service)
        write(untouched)
        assert _state(service, pairs) == _state(untouched, pairs)
        assert service._graph.weight(u, v) == weight
    assert len(service.ledger.records()) == len(untouched.ledger.records())


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("change", ["removed", "rewired"])
def test_another_topology_is_refused_before_rotating(shards, change):
    first = _small(4)
    edges = list(_small(5).edges())
    # An interior edge: the grid stays connected without it.
    drop = next(
        i for i, (u, v, _) in enumerate(edges) if (u, v) == ((3, 3), (3, 4))
    )
    edges = edges[:drop] + edges[drop + 1:]
    if change == "rewired":
        edges.append(((0, 0), (SMALL - 1, SMALL - 1), 1.0))
    other = _rebuilt(first.vertex_list(), edges)
    service = _service(first, shards)
    pairs = _pairs(first)
    before = _state(service, pairs)
    records = service.ledger.records()
    with pytest.raises(
        GraphError,
        match="^refresh graph's vertex or edge set differs from the "
        "service's$",
    ):
        service.refresh(other)
    assert service.ledger.records() == records
    assert service.epoch == 0
    assert _state(service, pairs) == before


@pytest.mark.parametrize("shards", SHARDS)
def test_regional_vectors_stay_in_the_service_order(shards):
    """After a refresh with the edges reversed in order and
    orientation, ``refresh_shard`` takes its vector in the service's
    order, as after a refresh with the plan-order graph."""
    first, second = _small(6), _small(7)
    flipped = _rebuilt(
        second.vertex_list(),
        [(v, u, w) for u, v, w in list(second.edges())[::-1]],
    )
    pairs = _pairs(first)
    shard = shards - 1
    states = []
    for graph in (second, flipped):
        service = _service(first, shards, BudgetLedger(PrivacyParams(1e8)))
        service.refresh(graph)
        service.refresh_shard(shard, _regional(service, second, shard))
        states.append(_state(service, pairs))
    assert states[0] == states[1]
    if shards > 1:
        e = _outside(service, first, shard)
        weights = second.weight_vector()
        weights[e] += 1.0
        records = len(service.ledger.records())
        with pytest.raises(
            GraphError,
            match=re.escape(f"edge {first.edge_list()[e]!r} belongs elsewhere"),
        ):
            service.refresh_shard(shard, weights)
        assert len(service.ledger.records()) == records
