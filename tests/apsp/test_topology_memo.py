"""Hub builds over a compiled topology whose memo is already filled.

The ball pairs, their partner trees and the sites' mutual
reachability read no weight, so
:func:`repro.apsp.hubs.build_hub_structure` keeps them in the compiled
structure's topology memo, and every later build over the same
structure (another epoch's weights, another tenant) reuses them.  A
build that reuses them must release, bit for bit, what a build after
a fresh compile releases under the same seed, and the memo entry must
hold what an independent full search finds.
"""

from __future__ import annotations

import numpy as np
import pytest

from hub_reference import (
    boundary_sites,
    reference_ball_pairs,
    strongly_connected_digraph,
)

from repro import Rng, WeightedGraph
from repro.algorithms.covering import meir_moon_k_covering
from repro.apsp import hubs as hubs_module
from repro.apsp.hubs import (
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)
from repro.engine import CSRGraph
from repro.engine.kernels import multi_source_distances
from repro.graphs import generators

SEED = 2204016
ROWS, COLS = 12, 13

SITE_SETS = {
    "all": lambda graph: graph.vertex_list(),
    "boundary": lambda graph: boundary_sites(graph, 4, 1),
    "covering": lambda graph: meir_moon_k_covering(graph, 2),
}


def _weights(seed: int, count: int) -> list:
    rng = Rng(seed)
    return [rng.uniform(0.5, 3.0) for _ in range(count)]


def _grid(seed: int) -> WeightedGraph:
    """A fresh, never compiled weighted grid."""
    graph = generators.grid_graph(ROWS, COLS)
    return graph.with_weights(_weights(seed, graph.num_edges))


def _build(csr: CSRGraph, sites, seed: int, ball_size: int | None = None):
    site_idx = csr.indices_of(sites)
    m = len(site_idx)
    b = default_ball_size(m) if ball_size is None else ball_size
    return build_hub_structure(
        csr, site_idx, default_hub_count(m), b, 1.0, 0.0, Rng(seed)
    )


def _assert_same_release(got, want) -> None:
    assert np.array_equal(got.hub_positions, want.hub_positions)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.ball_keys.tobytes() == want.ball_keys.tobytes()
    assert got.ball_values.tobytes() == want.ball_values.tobytes()
    assert got.noise_scale == want.noise_scale
    assert got.pair_count == want.pair_count


@pytest.mark.parametrize("site_set", sorted(SITE_SETS))
def test_filled_memo_releases_what_a_fresh_compile_releases(site_set):
    first = _grid(SEED)
    csr = CSRGraph.from_graph(first)
    # Fill the memo under the first weights with every site set and two
    # ball sizes, so an entry keyed too loosely would be found again.
    for sites in SITE_SETS.values():
        for ball_size in (None, 2):
            _build(csr, sites(first), SEED + 1, ball_size)
    second = first.with_weights(_weights(SEED + 2, first.num_edges))
    reused = CSRGraph.from_graph(second)
    assert reused.indptr is csr.indptr
    fresh = CSRGraph.from_graph(
        generators.grid_graph(ROWS, COLS).with_weights(second.weight_vector())
    )
    assert fresh.indptr is not csr.indptr
    sites = SITE_SETS[site_set](first)
    for ball_size in (None, 2):
        _assert_same_release(
            _build(reused, sites, SEED + 3, ball_size),
            _build(fresh, sites, SEED + 3, ball_size),
        )


def _key(site_idx: np.ndarray, ball_size: int) -> tuple:
    return ("ball_trees", site_idx.tobytes(), ball_size)


def test_memo_holds_the_same_arrays_for_two_weightings(monkeypatch):
    searches = []
    search = hubs_module._ball_trees

    def counting(unit, site_idx, ball_size):
        searches.append(ball_size)
        return search(unit, site_idx, ball_size)

    monkeypatch.setattr(hubs_module, "_ball_trees", counting)
    graph = _grid(SEED)
    csr_a = CSRGraph.from_graph(graph)
    csr_b = CSRGraph.from_graph(
        graph.with_weights(_weights(SEED + 1, graph.num_edges))
    )
    sites = graph.vertex_list()
    release_a = _build(csr_a, sites, SEED + 2)
    release_b = _build(csr_b, sites, SEED + 2)
    assert len(searches) == 1
    # Different weights, the same ball pairs, different exact values.
    assert np.array_equal(release_a.ball_keys, release_b.ball_keys)
    assert not np.array_equal(release_a.ball_values, release_b.ball_values)

    site_idx = csr_a.indices_of(sites)
    key = _key(site_idx, default_ball_size(len(sites)))

    def recompute(unit):
        pytest.fail("a filled memo entry was computed again")

    trees_a = csr_a.topology_memo(key, recompute)
    trees_b = csr_b.topology_memo(key, recompute)
    assert trees_a is trees_b
    arrays = vars(trees_a).values()
    assert len(arrays) == 6
    assert not any(array.flags.writeable for array in arrays)
    assert csr_b.topology_memo(("reachable", site_idx.tobytes()), recompute)


#: Per case, a graph maker and ``graph -> (sites, ball_size)``
#: (``None`` for the default ball size).
MEMO_CASES = {
    # Unit weights: every ball closes on a level of hop ties.
    "hop-ties": (
        lambda: generators.grid_graph(9, 11),
        lambda graph: (graph.vertex_list(), None),
    ),
    "boundary": (
        lambda: _grid(SEED),
        lambda graph: (boundary_sites(graph, 4, 1), None),
    ),
    "directed": (
        lambda: strongly_connected_digraph(70, Rng(SEED)),
        lambda graph: (graph.vertex_list(), None),
    ),
    "whole-ball": (
        lambda: generators.grid_graph(6, 7),
        lambda graph: (graph.vertex_list(), graph.num_vertices - 1),
    ),
}


def _tree_depths(csr: CSRGraph, site_idx: np.ndarray, trees) -> np.ndarray:
    """Walk every pair's tree path from ``hi`` up to its root, checking
    that each arc runs from the parent's vertex to the entry's and
    that the root is ``lo``'s vertex; returns each path's hop count."""
    tails = np.repeat(np.arange(csr.n), np.diff(csr.indptr))
    roots = trees.levels[1]
    entry = trees.entry.astype(np.int64)
    vertex = site_idx[trees.hi]
    depth = np.zeros(len(entry), dtype=np.int64)
    while (entry >= roots).any():
        walking = entry >= roots
        arc = trees.arc[entry[walking]]
        assert np.array_equal(csr.indices[arc], vertex[walking])
        vertex[walking] = tails[arc]
        entry[walking] = trees.parent[entry[walking]]
        depth[walking] += 1
    assert np.array_equal(vertex, site_idx[trees.lo])
    return depth


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memo_entries_match_a_unit_weight_search(case):
    make_graph, make_sites = MEMO_CASES[case]
    graph = make_graph()
    sites, ball_size = make_sites(graph)
    csr = CSRGraph.from_graph(graph)
    _build(csr, sites, SEED, ball_size)
    site_idx = csr.indices_of(sites)
    b = default_ball_size(len(site_idx)) if ball_size is None else ball_size
    trees = csr.topology_memo(
        _key(site_idx, b),
        lambda unit: pytest.fail("the build left no ball-tree entry"),
    )
    # The pairs are what a dense unit-weight sweep and a stable argsort
    # of every row pick.
    lo, hi = reference_ball_pairs(
        CSRGraph.from_graph(make_graph()), site_idx, b
    )
    assert np.array_equal(trees.lo, lo)
    assert np.array_equal(trees.hi, hi)
    # Each partner sits in its source's tree at its hop distance, on
    # the level the entry is stored in.
    unit = csr.with_weights(np.ones(csr.num_edges))
    hops = multi_source_distances(unit, site_idx)[:, site_idx][lo, hi]
    depth = _tree_depths(csr, site_idx, trees)
    assert np.array_equal(depth, hops)
    level = np.searchsorted(trees.levels, trees.entry, side="right") - 1
    assert np.array_equal(level, depth)
    if case == "whole-ball":
        assert len(lo) == len(sites) * (len(sites) - 1) // 2
