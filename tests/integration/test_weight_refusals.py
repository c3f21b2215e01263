"""Every public distance release refuses a weight outside Definition
2.1's finite non-negative range before it draws: a NaN, an infinite
and a negative weight each raise
:class:`~repro.exceptions.WeightError`, the rng is left untouched, and
a fresh batch records no ledger spend."""

from __future__ import annotations

import pytest

from repro import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    BoundedWeightRelease,
    PrivacyParams,
    Rng,
    WeightError,
    private_distance,
    release_synthetic_graph,
    release_tree_all_pairs,
    release_tree_single_source,
)
from repro.apsp import HubSetBoundedRelease, HubSetRelease
from repro.graphs import generators
from repro.serving import BudgetLedger, build_single_pair_synopsis, fresh_batch

SEED = 21


def _fresh_batch(graph, rng):
    ledger = BudgetLedger(PrivacyParams(10.0))
    pairs = [((0, 0), (3, 3)), ((1, 2), (3, 0))]
    try:
        fresh_batch(graph, pairs, 1.0, rng, ledger=ledger)
    finally:
        assert ledger.records() == []


#: Each release, on the graph it takes: the 4x4 grid or a tree.
RELEASES = {
    "all-pairs-basic": (
        "grid", lambda g, rng: AllPairsBasicRelease(g, 1.0, rng)
    ),
    "all-pairs-advanced": (
        "grid", lambda g, rng: AllPairsAdvancedRelease(g, 1.0, 1e-6, rng)
    ),
    "bounded-weight": (
        "grid", lambda g, rng: BoundedWeightRelease(g, 10.0, 1.0, rng)
    ),
    "hub-bounded": (
        "grid", lambda g, rng: HubSetBoundedRelease(g, 10.0, 1.0, rng)
    ),
    "hub-set": ("grid", lambda g, rng: HubSetRelease(g, 1.0, rng)),
    "tree-single-source": (
        "tree", lambda g, rng: release_tree_single_source(g, 1.0, rng)
    ),
    "tree-all-pairs": (
        "tree", lambda g, rng: release_tree_all_pairs(g, 1.0, rng)
    ),
    "synthetic-graph": (
        "grid", lambda g, rng: release_synthetic_graph(g, 1.0, rng)
    ),
    "single-pair": (
        "grid",
        lambda g, rng: build_single_pair_synopsis(
            g, [((0, 0), (3, 3))], 1.0, rng
        ),
    ),
    "private-distance": (
        "grid", lambda g, rng: private_distance(g, (0, 0), (3, 3), 1.0, rng)
    ),
    "fresh-batch": ("grid", _fresh_batch),
}


def _graph(kind: str, bad: float):
    graph = (
        generators.grid_graph(4, 4)
        if kind == "grid"
        else generators.random_tree(15, Rng(3))
    )
    u, v = graph.edge_list()[graph.num_edges // 2]
    graph.set_weight(u, v, bad)
    return graph


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
)
@pytest.mark.parametrize("name", sorted(RELEASES))
def test_refused_before_any_draw(name, bad):
    kind, release = RELEASES[name]
    rng = Rng(SEED)
    with pytest.raises(WeightError):
        release(_graph(kind, bad), rng)
    assert rng.uniform() == Rng(SEED).uniform()
