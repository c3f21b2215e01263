"""The one-search ball trees against the two-search construction.

:func:`repro.apsp.hubs._ball_trees` grows every site's ball and its
partner tree in one :class:`~repro.engine.frontier.FrontierSearch`
pass per chunk of ``_ROW_CHUNK`` sites, taking the chunks in
descending site order.  It must find what
:func:`hub_reference.reference_ball_trees` finds with a second search
from every pair source: the same pairs, the same number of tree
entries, and the same tree-path weight for every partner, bit for bit.

Every graph here has fewer sites than the default chunk, so the chunk
size is also patched down to 3, 7 and 16: then pairs wait for a lower
chunk to be searched, and the last chunk is short.
"""

from __future__ import annotations

import numpy as np
import pytest
from hub_reference import (
    boundary_sites,
    reference_ball_trees,
    strongly_connected_digraph,
)

from repro import Rng
from repro.apsp import hubs as hubs_module
from repro.apsp.hubs import default_ball_size
from repro.engine import CSRGraph
from repro.engine.frontier import FrontierSearch
from repro.graphs import generators

SEED = 2204031


def _random_weights(graph, rng):
    return generators.assign_random_weights(graph, rng, low=0.5, high=3.0)


def _zero_weight_grid(rows, cols, rng):
    """Random weights, a third of them exactly zero."""
    graph = generators.grid_graph(rows, cols)
    return graph.with_weights(
        [0.0 if rng.uniform(0.0, 1.0) < 1 / 3 else rng.uniform(0.5, 3.0)
         for _ in range(graph.num_edges)]
    )


GRAPHS = {
    "grid": lambda rng: _random_weights(generators.grid_graph(9, 11), rng),
    "erdos-renyi": lambda rng: _random_weights(
        generators.erdos_renyi_graph(80, 0.05, rng), rng
    ),
    "tree": lambda rng: _random_weights(generators.random_tree(90, rng), rng),
    "zero-weights": lambda rng: _zero_weight_grid(9, 10, rng),
    "directed": lambda rng: strongly_connected_digraph(70, rng),
}

#: Site sets, each mutually reachable on every graph above: all
#: vertices, a 4-shard boundary, and a random subset in random order.
SITES = {
    "all": lambda graph, rng: graph.vertex_list(),
    "boundary": lambda graph, rng: boundary_sites(graph, 4, 0),
    "subset": lambda graph, rng: rng.sample(
        graph.vertex_list(), graph.num_vertices * 2 // 5
    ),
}

BALL_SIZES = {
    "one": lambda m: 1,
    "default": default_ball_size,
    "all-others": lambda m: m - 1,
}


@pytest.mark.parametrize("chunk", [3, 7, 16, None], ids=str)
@pytest.mark.parametrize("ball", sorted(BALL_SIZES))
@pytest.mark.parametrize("sites", sorted(SITES))
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_one_search_matches_two_searches(
    monkeypatch, graph, sites, ball, chunk
):
    rng = Rng(SEED)
    weighted = GRAPHS[graph](rng)
    csr = CSRGraph.from_graph(weighted)
    site_idx = csr.indices_of(SITES[sites](weighted, rng))
    m = len(site_idx)
    ball_size = BALL_SIZES[ball](m)
    unit = csr.with_weights(np.ones(csr.num_edges))
    want = reference_ball_trees(unit, site_idx, ball_size)

    if chunk is not None:
        monkeypatch.setattr(hubs_module, "_ROW_CHUNK", chunk)
    starts = []
    start = FrontierSearch.start

    def counting(search, sources):
        starts.append(len(sources))
        return start(search, sources)

    monkeypatch.setattr(FrontierSearch, "start", counting)
    got = hubs_module._ball_trees(unit, site_idx, ball_size)
    # One search per chunk of sites, the last one short.
    size = hubs_module._ROW_CHUNK
    assert sorted(starts) == sorted(
        min(size, m - begin) for begin in range(0, m, size)
    )

    assert [a.dtype for a in vars(got).values()] == [
        a.dtype for a in vars(want).values()
    ]
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()
    assert len(got.parent) == len(got.arc) == len(want.parent)
    got_bound = hubs_module._tree_weights(csr, got)[got.entry]
    want_bound = hubs_module._tree_weights(csr, want)[want.entry]
    assert got_bound.tobytes() == want_bound.tobytes()
