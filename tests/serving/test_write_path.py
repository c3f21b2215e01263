"""Writes re-weight arrays, not Python graphs.

In Sealfon's model the topology is fixed and an epoch is a new weight
function, so no write of a forced ``hub-set`` service -- ``serve()``,
``refresh(graph)`` or ``refresh_shard(i, weights)`` -- walks a graph's
neighbours: none builds adjacency dicts for the caller's graph, the
service's graph or any tenant.  ``refresh_shard`` reads its weights
as one vector, whichever form they come in, and refuses a bad update
before it spends, exactly as before.
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
