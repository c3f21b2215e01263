"""The local-search hub build against the full-sweep oracle.

:func:`repro.apsp.hubs.build_hub_structure` finds its exact values by
hub-row sweeps, a hop search for the balls and partner trees, and one
weight-limited sweep per ball-pair source, limited by the partners'
tree-path weights.  Under the same seed it must release exactly what
the full-sweep construction of :mod:`hub_reference` releases: the same
hubs, the same hub table and ball table bit for bit, the same noise
scale and pair count — on the scipy path and on the relaxation
fallback alike, and whatever number of sources one sweep block
holds.  Its scalar lookups must answer what the dict-based
lookups of :mod:`hub_reference` answer over the same released tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hub_reference import (
    boundary_sites,
    reference_ball,
    reference_estimate,
    reference_hub_structure,
    reference_scale_for,
    strongly_connected_digraph,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DisconnectedGraphError,
    EngineError,
    GraphError,
    Rng,
    WeightedGraph,
)
from repro.apsp import hubs as hubs_module
from repro.apsp.hubs import (
    build_hub_structure,
    default_ball_size,
    default_hub_count,
)
from repro.engine import CSRGraph, kernels
from repro.graphs import generators

SEED = 2204023


@pytest.fixture(params=["scipy", "relaxation"])
def engine(request, monkeypatch):
    """Run each case on both sweep paths (scipy-free installs run the
    fallback twice)."""
    if request.param == "relaxation":
        monkeypatch.setattr(kernels, "_scipy_dijkstra", None)
    return request.param


def _assert_identical(graph, sites, seed, hub_count=None, ball_size=None):
    csr = CSRGraph.from_graph(graph)
    site_idx = csr.indices_of(sites)
    m = len(site_idx)
    h = default_hub_count(m) if hub_count is None else hub_count
    b = default_ball_size(m) if ball_size is None else ball_size
    built = build_hub_structure(csr, site_idx, h, b, 1.0, 0.0, Rng(seed))
    oracle = reference_hub_structure(
        csr, site_idx, h, b, 1.0, 0.0, Rng(seed)
    )
    _assert_same_release(built, oracle)
    return built


def _assert_same_release(built, other):
    assert np.array_equal(built.hub_positions, other.hub_positions)
    assert np.array_equal(built.matrix, other.matrix)
    assert built.ball_keys.dtype == other.ball_keys.dtype == np.int64
    assert built.ball_keys.tobytes() == other.ball_keys.tobytes()
    assert built.ball_values.tobytes() == other.ball_values.tobytes()
    assert built.noise_scale == other.noise_scale
    assert built.pair_count == other.pair_count


def _block_rows(monkeypatch, rows: int, graph: WeightedGraph) -> None:
    """Shrink the engine's sweep budget to ``rows`` sources per block
    on ``graph``.  Every graph here fits one block at the default
    budget, so only a shrunk one reaches the multi-block path."""
    monkeypatch.setattr(
        kernels, "SWEEP_BLOCK_BYTES", rows * 8 * graph.num_vertices
    )
    assert kernels.sweep_block_rows(CSRGraph.from_graph(graph)) == rows


def _random_weights(graph: WeightedGraph, rng: Rng) -> WeightedGraph:
    return generators.assign_random_weights(graph, rng, low=0.5, high=3.0)


def _congested_grid(rows: int, cols: int, rng: Rng) -> WeightedGraph:
    """Random weights, ten times heavier in the lower-right quarter."""
    graph = generators.grid_graph(rows, cols)
    weights = []
    for (r1, c1), (r2, c2) in graph.edge_list():
        slow = min(r1, r2) >= rows // 2 and min(c1, c2) >= cols // 2
        weights.append(rng.uniform(1.0, 2.0) * (10.0 if slow else 1.0))
    return graph.with_weights(weights)


@pytest.mark.parametrize("seed", range(3))
class TestBitIdentical:
    def test_unit_grid_hop_ties(self, engine, seed):
        graph = generators.grid_graph(9, 11)
        _assert_identical(graph, graph.vertex_list(), SEED + seed)

    def test_random_weight_erdos_renyi(self, engine, seed):
        rng = Rng(SEED + seed)
        graph = _random_weights(
            generators.erdos_renyi_graph(90, 0.05, rng), rng
        )
        _assert_identical(graph, graph.vertex_list(), SEED + seed)

    def test_shard_boundary_sites(self, engine, seed):
        rng = Rng(SEED + seed)
        graph = _random_weights(generators.grid_graph(14, 14), rng)
        boundary = boundary_sites(graph, 4, seed)
        _assert_identical(graph, boundary, SEED + seed)

    def test_directed_graph(self, engine, seed):
        graph = strongly_connected_digraph(70, Rng(SEED + seed))
        _assert_identical(graph, graph.vertex_list(), SEED + seed)


def _sweeps(monkeypatch) -> list:
    """Record ``(sources, limit)`` of every sweep the hub build makes."""
    calls = []
    sweep = kernels.multi_source_distances

    def spy(csr, sources, limit=np.inf):
        calls.append((np.asarray(sources).tolist(), limit))
        return sweep(csr, sources, limit)

    monkeypatch.setattr(hubs_module, "multi_source_distances", spy)
    return calls


def _zero_weight_grid(rows: int, cols: int, rng: Rng) -> WeightedGraph:
    """Random weights, a third of them exactly zero."""
    graph = generators.grid_graph(rows, cols)
    return graph.with_weights(
        [0.0 if rng.uniform(0.0, 1.0) < 1 / 3 else rng.uniform(0.5, 3.0)
         for _ in range(graph.num_edges)]
    )


class TestSweepBlocks:
    """Sweeps of 1, 3 and 7 sources release, bit for bit, what the
    default budget's single block per sweep releases."""

    CASES = {
        "grid": lambda rng: (
            _random_weights(generators.grid_graph(9, 11), rng), None
        ),
        "erdos-renyi": lambda rng: (
            _random_weights(generators.erdos_renyi_graph(90, 0.05, rng), rng),
            None,
        ),
        "zero-weights": lambda rng: (_zero_weight_grid(10, 11, rng), None),
        "boundary": lambda rng: (
            _random_weights(generators.grid_graph(14, 14), rng), 4
        ),
        "directed": lambda rng: (strongly_connected_digraph(70, rng), None),
    }

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocked_build_is_bit_identical(
        self, engine, monkeypatch, case, rows
    ):
        graph, shards = self.CASES[case](Rng(SEED))
        sites = (
            graph.vertex_list() if shards is None
            else boundary_sites(graph, shards, 0)
        )
        csr = CSRGraph.from_graph(graph)
        site_idx = csr.indices_of(sites)
        m = len(site_idx)

        def build():
            return build_hub_structure(
                csr, site_idx, default_hub_count(m), default_ball_size(m),
                1.0, 0.0, Rng(SEED),
            )

        whole = build()
        _block_rows(monkeypatch, rows, graph)
        _assert_same_release(build(), whole)


class TestOneSweepPerSource:
    """Each ball-pair source is swept once per build, to a limit taken
    from its partners' tree-path weights, and no sweep takes more
    sources than a block holds."""

    GRAPHS = pytest.mark.parametrize(
        "make",
        [
            lambda: _congested_grid(12, 12, Rng(SEED)),
            lambda: strongly_connected_digraph(70, Rng(SEED)),
        ],
        ids=["congested", "directed"],
    )

    @GRAPHS
    def test_each_ball_source_swept_once(self, engine, monkeypatch, make):
        self._swept_once(monkeypatch, make())

    @GRAPHS
    def test_each_ball_source_swept_once_in_3_row_blocks(
        self, engine, monkeypatch, make
    ):
        graph = make()
        _block_rows(monkeypatch, 3, graph)
        self._swept_once(monkeypatch, graph)

    @staticmethod
    def _swept_once(monkeypatch, graph):
        block = kernels.sweep_block_rows(CSRGraph.from_graph(graph))
        calls = _sweeps(monkeypatch)
        built = _assert_identical(graph, graph.vertex_list(), SEED)
        assert calls and all(len(s) <= block for s, _ in calls)
        m = graph.num_vertices
        # Sites are all vertices, so site positions are CSR indices.
        keys = built.ball_keys
        sources = np.unique(keys // m)
        ball_calls = [(s, limit) for s, limit in calls if limit < np.inf]
        swept = [v for s, _ in ball_calls for v in s]
        assert sorted(swept) == sources.tolist()
        # Every source in a sweep has its limit within _BAND_FACTOR.
        csr = CSRGraph.from_graph(graph)
        trees = csr.topology_memo(
            ("ball_trees", csr.indices_of(graph.vertex_list()).tobytes(),
             default_ball_size(m)),
            lambda unit: pytest.fail("the build left no ball-tree entry"),
        )
        at = np.searchsorted(trees.lo.astype(np.int64) * m + trees.hi, keys)
        bound = hubs_module._tree_weights(csr, trees)[trees.entry[at]]
        source_bound = np.maximum.reduceat(
            bound, np.flatnonzero(np.diff(keys // m, prepend=-1))
        )
        for s, limit in ball_calls:
            own = source_bound[np.searchsorted(sources, s)]
            assert own.max() == limit
            assert (hubs_module._BAND_FACTOR * own >= limit).all()


class TestTreeBounds:
    """Every partner's tree-path weight bounds its exact distance from
    the pair's lower-index site, bit for bit."""

    CASES = {
        "random": lambda rng: _random_weights(
            generators.grid_graph(11, 12), rng
        ),
        "zero-weights": lambda rng: _zero_weight_grid(11, 12, rng),
        "congested": lambda rng: _congested_grid(12, 12, rng),
        "directed": lambda rng: strongly_connected_digraph(80, rng),
        "erdos-renyi": lambda rng: _random_weights(
            generators.erdos_renyi_graph(90, 0.05, rng), rng
        ),
    }

    @staticmethod
    def _bounds(graph, sites):
        csr = CSRGraph.from_graph(graph)
        site_idx = csr.indices_of(sites)
        m = len(site_idx)
        unit = csr.with_weights(np.ones(csr.num_edges))
        trees = hubs_module._ball_trees(unit, site_idx, default_ball_size(m))
        bound = hubs_module._tree_weights(csr, trees)[trees.entry]
        exact = kernels.multi_source_distances(csr, site_idx)[:, site_idx]
        return bound, exact[trees.lo, trees.hi]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_covers_exact_value(self, engine, case, seed):
        graph = self.CASES[case](Rng(SEED + seed))
        bound, exact = self._bounds(graph, graph.vertex_list())
        assert len(bound) and (bound >= exact).all()

    def test_bound_covers_exact_value_at_boundary_sites(self, engine):
        graph = _random_weights(generators.grid_graph(14, 14), Rng(SEED))
        boundary = boundary_sites(graph, 4, 0)
        bound, exact = self._bounds(graph, boundary)
        assert len(bound) and (bound >= exact).all()

    def test_bound_is_exact_on_a_tree(self, engine):
        # One path per pair: the tree-path sum is the Dijkstra sum.
        rng = Rng(SEED)
        graph = _random_weights(generators.random_tree(120, rng), rng)
        bound, exact = self._bounds(graph, graph.vertex_list())
        assert bound.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_weight_edges_build_bit_identical(self, engine, seed):
        graph = _zero_weight_grid(10, 11, Rng(SEED + seed))
        _assert_identical(graph, graph.vertex_list(), SEED + seed)


def test_partner_beyond_its_bound_raises(engine, monkeypatch):
    # Zero bounds settle no partner at a positive distance; the build
    # must refuse rather than release an infinite distance.
    monkeypatch.setattr(
        hubs_module,
        "_tree_weights",
        lambda csr, trees: np.zeros(len(trees.parent)),
    )
    graph = _random_weights(generators.grid_graph(6, 7), Rng(SEED))
    csr = CSRGraph.from_graph(graph)
    with pytest.raises(EngineError, match="tree-path bound"):
        build_hub_structure(
            csr, csr.indices_of(graph.vertex_list()), 3, 4, 1.0, 0.0,
            Rng(SEED),
        )


class TestEdgeSizes:
    def test_no_ball(self, engine):
        graph = _random_weights(generators.grid_graph(7, 8), Rng(SEED))
        built = _assert_identical(
            graph, graph.vertex_list(), SEED, ball_size=0
        )
        assert built.ball_keys.size == built.ball_values.size == 0

    def test_every_site_a_hub(self, engine):
        graph = _random_weights(generators.grid_graph(7, 8), Rng(SEED))
        m = graph.num_vertices
        built = _assert_identical(
            graph, graph.vertex_list(), SEED, hub_count=m
        )
        # Every ball pair has a hub endpoint, so none is released.
        assert built.ball_keys.size == built.ball_values.size == 0

    def test_ball_spans_all_other_sites(self, engine):
        graph = _random_weights(generators.grid_graph(6, 7), Rng(SEED))
        m = graph.num_vertices
        _assert_identical(
            graph, graph.vertex_list(), SEED, hub_count=3, ball_size=m - 1
        )

    def test_sites_inside_one_component(self, engine):
        # The graph is disconnected, but the sites all reach each other.
        graph = _random_weights(generators.grid_graph(6, 6), Rng(SEED))
        graph.add_edge("far", "away", 1.0)
        sites = [v for v in graph.vertex_list() if v not in ("far", "away")]
        _assert_identical(graph, sites, SEED)


class TestSiteIndices:
    def _rejects_before_drawing(self, sites, match):
        csr = CSRGraph.from_graph(generators.grid_graph(4, 4))
        rng = Rng(SEED)
        with pytest.raises(GraphError, match=match) as raised:
            build_hub_structure(
                csr, np.array(sites), 2, 2, 1.0, 0.0, rng
            )
        assert type(raised.value) is GraphError
        # The rejected build left the generator untouched.
        assert np.array_equal(
            rng.laplace_vector(1.0, 4), Rng(SEED).laplace_vector(1.0, 4)
        )

    def test_duplicate_sites_rejected(self):
        # Ball positions are keyed by vertex, so a repeated site is
        # refused.
        self._rejects_before_drawing([0, 1, 2, 1], "distinct")

    def test_negative_index_rejected(self):
        self._rejects_before_drawing([0, 1, 2, -1], "vertex indices")

    def test_index_past_the_last_vertex_rejected(self):
        self._rejects_before_drawing([0, 1, 2, 16], "vertex indices")


class TestUnreachableSites:
    def _rejects_before_drawing(self, graph, sites):
        csr = CSRGraph.from_graph(graph)
        rng = Rng(SEED)
        with pytest.raises(DisconnectedGraphError):
            build_hub_structure(
                csr, csr.indices_of(sites), 2, 2, 1.0, 0.0, rng
            )
        # The rejected build left the generator untouched.
        assert np.array_equal(
            rng.laplace_vector(1.0, 4), Rng(SEED).laplace_vector(1.0, 4)
        )

    def test_undirected_island(self):
        graph = generators.grid_graph(4, 4)
        graph.add_edge("island", "shore", 1.0)
        self._rejects_before_drawing(graph, graph.vertex_list())

    def test_directed_one_way(self):
        # Every site reaches the last one, but nothing leads back.
        graph = WeightedGraph(directed=True)
        for i in range(5):
            graph.add_edge(i, i + 1, 1.0)
        self._rejects_before_drawing(graph, graph.vertex_list())

    def test_directed_sink_site(self, engine):
        # A strongly connected core plus a sink the core reaches but
        # which reaches nothing: the core alone builds, with the sink
        # it fails.
        graph = strongly_connected_digraph(20, Rng(SEED))
        graph.add_edge(0, "sink", 1.0)
        core = [v for v in graph.vertex_list() if v != "sink"]
        _assert_identical(graph, core, SEED)
        self._rejects_before_drawing(graph, graph.vertex_list())


def _lookup_kinds(structure) -> dict:
    """Check every site pair's (and every site's own) scalar lookups
    against the dict-based ones; count the pairs of each kind."""
    m = structure.num_sites
    ball = reference_ball(structure)
    is_hub = np.zeros(m, dtype=bool)
    is_hub[structure.hub_positions] = True
    kinds = {"ball": 0, "hub": 0, "none": 0, "ball-won": 0}
    for i in range(m):
        for j in range(m):
            got = structure.estimate(i, j), structure.scale_for(i, j)
            want = (
                reference_estimate(structure, ball, i, j),
                reference_scale_for(structure, ball, i, j),
            )
            assert got == want, (i, j)
            if i < j:
                key = i * m + j
                kind = (
                    "ball" if key in ball
                    else "hub" if is_hub[i] or is_hub[j]
                    else "none"
                )
                kinds[kind] += 1
                kinds["ball-won"] += got[1] == structure.noise_scale
    return kinds


class TestScalarLookup:
    """``estimate`` and ``scale_for`` bisect the sorted ball arrays;
    they must answer what a dict lookup of the same table answers."""

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 7),
        cols=st.integers(2, 7),
        seed=st.integers(0, 2**31),
        ball_share=st.floats(0.0, 1.0),
        eps=st.sampled_from([1.0, 1e6]),
    )
    def test_every_site_pair_matches_the_dict_lookup(
        self, rows, cols, seed, ball_share, eps
    ):
        graph = _random_weights(generators.grid_graph(rows, cols), Rng(seed))
        csr = CSRGraph.from_graph(graph)
        m = graph.num_vertices
        structure = build_hub_structure(
            csr, csr.indices_of(graph.vertex_list()), default_hub_count(m),
            round(ball_share * (m - 1)), eps, 0.0, Rng(seed),
        )
        _lookup_kinds(structure)

    def test_every_kind_of_pair_is_looked_up(self):
        # Ball pairs (won and lost), pairs with a hub endpoint and pairs
        # in no ball, at boundary sites as well as all vertices.
        graph = _random_weights(generators.grid_graph(9, 9), Rng(SEED))
        csr = CSRGraph.from_graph(graph)
        for sites in (graph.vertex_list(), boundary_sites(graph, 4, 0)):
            site_idx = csr.indices_of(sites)
            m = len(site_idx)
            structure = build_hub_structure(
                csr, site_idx, default_hub_count(m), default_ball_size(m),
                1e6, 0.0, Rng(SEED),
            )
            kinds = _lookup_kinds(structure)
            assert min(kinds.values()) > 0, kinds
            assert kinds["ball-won"] < kinds["ball"], kinds
