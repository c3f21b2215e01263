"""Unit tests for :mod:`repro.serving.synopsis`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    GraphError,
    Rng,
    SynopsisError,
    VertexNotFoundError,
    release_bounded_weight,
    release_tree_all_pairs,
)
from repro.graphs import RootedTree, generators
from repro.graphs.io import _decode_vertex, _encode_vertex
from repro.serving import (
    AllPairsSynopsis,
    BoundedWeightSynopsis,
    DistanceSynopsis,
    SinglePairSynopsis,
    TreeSynopsis,
    build_single_pair_synopsis,
    synopsis_from_json,
)
from repro.serving.synopsis import _KINDS, canonical_pair

from all_pairs_reference import reference_all_pairs_synopsis


class TestCanonicalPair:
    def test_symmetric(self):
        assert canonical_pair(3, 7) == canonical_pair(7, 3)
        assert canonical_pair((0, 1), (1, 0)) == canonical_pair((1, 0), (0, 1))

    def test_deterministic(self):
        assert canonical_pair("b", "a") == ("a", "b")


class TestAllPairsSynopsis:
    def test_matches_release(self, rng):
        graph = generators.grid_graph(4, 4)
        release = AllPairsBasicRelease(graph, 1.0, rng)
        synopsis = AllPairsSynopsis.from_release(release)
        for s in graph.vertices():
            for t in graph.vertices():
                assert synopsis.distance(s, t) == release.distance(s, t)

    def test_params_carried(self, rng):
        graph = generators.grid_graph(3, 3)
        synopsis = AllPairsSynopsis.from_release(
            AllPairsBasicRelease(graph, 0.5, rng)
        )
        assert synopsis.params.eps == 0.5
        assert synopsis.params.is_pure

    def test_self_distance_zero(self, rng):
        graph = generators.grid_graph(3, 3)
        synopsis = AllPairsSynopsis.from_release(
            AllPairsBasicRelease(graph, 1.0, rng)
        )
        assert synopsis.distance((1, 1), (1, 1)) == 0.0

    def test_unknown_vertex_raises(self, rng):
        graph = generators.grid_graph(3, 3)
        synopsis = AllPairsSynopsis.from_release(
            AllPairsBasicRelease(graph, 1.0, rng)
        )
        with pytest.raises(VertexNotFoundError):
            synopsis.distance((9, 9), (0, 0))

    def test_json_roundtrip(self, rng):
        graph = generators.grid_graph(3, 4)
        synopsis = AllPairsSynopsis.from_release(
            AllPairsBasicRelease(graph, 1.0, rng)
        )
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, AllPairsSynopsis)
        assert restored.params == synopsis.params
        for s in graph.vertices():
            for t in graph.vertices():
                assert restored.distance(s, t) == synopsis.distance(s, t)


class TestTreeSynopsis:
    def test_matches_release(self, rng):
        tree = generators.random_tree(25, rng)
        release = release_tree_all_pairs(tree, 1.0, rng, root=0)
        synopsis = TreeSynopsis.from_release(release)
        vertices = tree.vertex_list()
        for s in vertices:
            for t in vertices:
                assert synopsis.distance(s, t) == pytest.approx(
                    release.distance(s, t) if s != t else 0.0
                )

    def test_json_roundtrip(self, rng):
        tree = generators.random_tree(15, rng)
        release = release_tree_all_pairs(tree, 1.0, rng, root=0)
        synopsis = TreeSynopsis.from_release(release)
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, TreeSynopsis)
        assert restored.root == synopsis.root
        for s in tree.vertices():
            for t in tree.vertices():
                assert restored.distance(s, t) == pytest.approx(
                    synopsis.distance(s, t)
                )

    def test_serialization_leaks_no_weights(self, rng):
        """The synopsis JSON must contain released values and public
        structure only — never the raw private edge weights."""
        tree = generators.random_tree(10, rng)
        marker = 123.456789
        u, v, _ = next(tree.edges())
        tree.set_weight(u, v, marker)
        release = release_tree_all_pairs(tree, 1.0, rng, root=0)
        text = TreeSynopsis.from_release(release).to_json()
        assert str(marker) not in text


class TestBoundedWeightSynopsis:
    def test_matches_release(self, rng):
        graph = generators.grid_graph(5, 5)
        release = release_bounded_weight(graph, 1.0, 1.0, rng)
        synopsis = BoundedWeightSynopsis.from_release(release)
        for s in graph.vertices():
            for t in graph.vertices():
                assert synopsis.distance(s, t) == release.distance(s, t)

    def test_metadata(self, rng):
        graph = generators.grid_graph(5, 5)
        release = release_bounded_weight(graph, 2.0, 1.0, rng, k=2)
        synopsis = BoundedWeightSynopsis.from_release(release)
        assert synopsis.k == 2
        assert synopsis.weight_bound == 2.0

    def test_json_roundtrip(self, rng):
        graph = generators.grid_graph(4, 4)
        release = release_bounded_weight(graph, 1.0, 1.0, rng)
        synopsis = BoundedWeightSynopsis.from_release(release)
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, BoundedWeightSynopsis)
        assert restored.k == synopsis.k
        for s in graph.vertices():
            for t in graph.vertices():
                assert restored.distance(s, t) == synopsis.distance(s, t)


class TestSinglePairSynopsis:
    def test_build_answers_workload_only(self, triangle, rng):
        synopsis = build_single_pair_synopsis(
            triangle, [(0, 1), (1, 2)], 1.0, rng
        )
        assert isinstance(synopsis.distance(0, 1), float)
        assert synopsis.distance(1, 0) == synopsis.distance(0, 1)
        with pytest.raises(GraphError):
            synopsis.distance(0, 2)

    def test_dedupes_and_scales_by_unique_pairs(self, triangle):
        # 3 requests but only 2 unique unordered pairs: noise scale is
        # Q/eps = 2, checked via a zero-noise-impossible statistic over
        # many trials being finite; here just check determinism + dedupe.
        rng_a, rng_b = Rng(7), Rng(7)
        a = build_single_pair_synopsis(
            triangle, [(0, 1), (1, 0), (1, 2)], 1.0, rng_a
        )
        b = build_single_pair_synopsis(
            triangle, [(0, 1), (1, 2)], 1.0, rng_b
        )
        assert a.distance(0, 1) == b.distance(0, 1)
        assert a.num_entries == b.num_entries == 2

    def test_json_roundtrip(self, triangle, rng):
        synopsis = build_single_pair_synopsis(
            triangle, [(0, 1), (0, 2)], 1.0, rng
        )
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, SinglePairSynopsis)
        assert restored.distance(0, 2) == synopsis.distance(0, 2)

    def test_nonpositive_eps_rejected(self, triangle, rng):
        from repro.exceptions import PrivacyError

        with pytest.raises(PrivacyError):
            build_single_pair_synopsis(triangle, [(0, 1)], 0.0, rng)


class TestReproducibleBytes:
    """A seeded synopsis serializes to the same bytes in every
    process, whatever the interpreter's string hash seed."""

    _SCRIPT = """
from repro import AllPairsBasicRelease, Rng, WeightedGraph
from repro.serving import AllPairsSynopsis, build_single_pair_synopsis

graph = WeightedGraph.from_edges(
    [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 1.5), ("d", "a", 3.0)]
)
print(
    AllPairsSynopsis.from_release(
        AllPairsBasicRelease(graph, 1.0, Rng(0))
    ).to_json()
)
print(
    build_single_pair_synopsis(
        graph, [("a", "c"), ("d", "b")], 1.0, Rng(1)
    ).to_json()
)
"""

    def test_pair_tables_independent_of_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", self._SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        kinds = [json.loads(line)["kind"] for line in outputs[0].splitlines()]
        assert kinds == ["all-pairs", "single-pair"]


class TestRegistry:
    def test_bad_format_rejected(self):
        with pytest.raises(GraphError):
            synopsis_from_json(json.dumps({"format": "nope"}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            synopsis_from_json(
                json.dumps(
                    {
                        "format": "repro-synopsis",
                        "version": 1,
                        "kind": "mystery",
                        "eps": 1.0,
                        "delta": 0.0,
                    }
                )
            )

    def test_every_synopsis_kind_is_readable(self):
        # The reader's kind table is literal: a synopsis class left out
        # of it would write documents nothing reads back.
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        kinds = {c.kind: c for c in subclasses(DistanceSynopsis) if c.kind}
        assert kinds == _KINDS


class TestHubSetSynopsis:
    def _release(self, rng, n=6):
        graph = generators.grid_graph(n, n)
        from repro.apsp import HubSetRelease

        return graph, HubSetRelease(graph, 1.0, rng)

    def test_matches_release(self, rng):
        from repro.serving import HubSetSynopsis

        graph, release = self._release(rng)
        synopsis = HubSetSynopsis.from_release(release)
        for s, t in [((0, 0), (5, 5)), ((1, 2), (4, 0)), ((3, 3), (3, 3))]:
            assert synopsis.distance(s, t) == release.distance(s, t)
        assert synopsis.hubs == release.hubs

    def test_json_roundtrip(self, rng):
        from repro.serving import HubSetSynopsis

        graph, release = self._release(rng)
        synopsis = HubSetSynopsis.from_release(release)
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, HubSetSynopsis)
        assert restored.params == synopsis.params
        assert restored.hubs == synopsis.hubs
        assert restored.noise_scale == synopsis.noise_scale
        for s in graph.vertices():
            for t in graph.vertices():
                assert restored.distance(s, t) == synopsis.distance(s, t)

    def test_unknown_vertex_raises(self, rng):
        from repro.serving import HubSetSynopsis

        _, release = self._release(rng)
        synopsis = HubSetSynopsis.from_release(release)
        with pytest.raises(VertexNotFoundError):
            synopsis.distance((9, 9), (0, 0))

    def test_vertex_structure_size_mismatch_rejected(self, rng):
        from repro.serving import HubSetSynopsis

        _, release = self._release(rng)
        with pytest.raises(GraphError):
            HubSetSynopsis(
                release.params, [(0, 0)], release.structure
            )


class TestHubBoundedSynopsis:
    def _release(self, rng):
        graph = generators.grid_graph(6, 6)
        from repro.apsp import HubSetBoundedRelease

        return graph, HubSetBoundedRelease(graph, 1.0, 1.0, rng, k=2)

    def test_matches_release(self, rng):
        from repro.serving import HubBoundedSynopsis

        graph, release = self._release(rng)
        synopsis = HubBoundedSynopsis.from_release(release)
        for s in graph.vertices():
            for t in graph.vertices():
                assert synopsis.distance(s, t) == release.distance(s, t)

    def test_json_roundtrip(self, rng):
        from repro.serving import HubBoundedSynopsis

        graph, release = self._release(rng)
        synopsis = HubBoundedSynopsis.from_release(release)
        restored = synopsis_from_json(synopsis.to_json())
        assert isinstance(restored, HubBoundedSynopsis)
        assert restored.weight_bound == release.weight_bound
        assert restored.k == release.k
        for s in graph.vertices():
            for t in graph.vertices():
                assert restored.distance(s, t) == synopsis.distance(s, t)

    def test_bad_assignment_rejected(self, rng):
        from repro.serving import HubBoundedSynopsis

        _, release = self._release(rng)
        synopsis = HubBoundedSynopsis.from_release(release)
        with pytest.raises(GraphError):
            HubBoundedSynopsis(
                release.params,
                release.vertex_order,
                [999] * len(release.vertex_order),
                release.structure,
                release.weight_bound,
                release.k,
            )
        with pytest.raises(GraphError):
            HubBoundedSynopsis(
                release.params,
                release.vertex_order,
                [0],  # wrong length
                release.structure,
                release.weight_bound,
                release.k,
            )


def _all_pairs(graph, eps, rng, delta=0.0):
    """A seeded all-pairs synopsis, as the catalog builds one."""
    release = (
        AllPairsAdvancedRelease(graph, eps, delta, rng)
        if delta
        else AllPairsBasicRelease(graph, eps, rng)
    )
    return AllPairsSynopsis.from_release(release)


def _weighted_grid(rows, cols, seed):
    return generators.assign_random_weights(
        generators.grid_graph(rows, cols), Rng(seed), low=0.5, high=3.0
    )


class TestEngineNativeAllPairsBuild:
    """The all-pairs releases' engine build (one distance matrix and one
    vectorized draw over its upper triangle): value for value and byte
    for byte what the dict-of-dicts computation kept in
    ``all_pairs_reference`` releases under the same seed."""

    @staticmethod
    def _assert_matches_reference(graph, seed, delta):
        built = _all_pairs(graph, 1.0, Rng(seed), delta=delta)
        reference = reference_all_pairs_synopsis(graph, 1.0, delta, Rng(seed))
        for s in graph.vertices():
            for t in graph.vertices():
                assert built.distance(s, t) == reference.distance(s, t)
        assert built.to_json() == reference.to_json()

    def test_seeded_equivalence_with_release_path_pure(self):
        for graph in (
            generators.grid_graph(4, 5),
            _weighted_grid(3, 3, 1),
            _weighted_grid(4, 5, 2),
            _weighted_grid(6, 6, 3),
        ):
            self._assert_matches_reference(graph, 11, 0.0)

    def test_seeded_equivalence_with_release_path_advanced(self):
        for graph in (
            generators.grid_graph(4, 4),
            _weighted_grid(3, 3, 1),
            _weighted_grid(4, 5, 2),
            _weighted_grid(6, 6, 3),
        ):
            self._assert_matches_reference(graph, 12, 1e-6)

    def test_returns_registered_all_pairs_kind(self, rng):
        graph = generators.grid_graph(3, 3)
        synopsis = _all_pairs(graph, 1.0, rng)
        assert isinstance(synopsis, AllPairsSynopsis)
        restored = synopsis_from_json(synopsis.to_json())
        assert restored.distance((0, 0), (2, 2)) == synopsis.distance(
            (0, 0), (2, 2)
        )

    def test_disconnected_rejected(self, rng):
        from repro import DisconnectedGraphError

        graph = generators.grid_graph(2, 2)
        graph.add_vertex("island")
        with pytest.raises(DisconnectedGraphError):
            _all_pairs(graph, 1.0, rng)

    def test_single_vertex_graph(self, rng):
        from repro import WeightedGraph

        graph = WeightedGraph()
        graph.add_vertex("only")
        synopsis = _all_pairs(graph, 1.0, rng)
        assert synopsis.distance("only", "only") == 0.0


def _set(*edits):
    """An edit of a parsed document: each ``(path, value)`` sets the
    entry that ``path`` (keys and list indices) leads to; a callable
    value is first computed from the document."""

    def edit(document):
        for path, value in edits:
            *parents, last = path
            node = document
            for key in parents:
                node = node[key]
            node[last] = value(document) if callable(value) else value

    return edit


def _tree_document():
    """A valid tree synopsis: root 0; 1 and 2 under 0; 3 under 1.
    Row ``i`` is vertex ``i`` as ``[label, estimate, depth, parent]``."""
    return {
        "format": "repro-synopsis",
        "version": 1,
        "kind": "tree",
        "eps": 1.0,
        "delta": 0.0,
        "root": 0,
        "noise_scale": 2.0,
        "vertices": [
            [0, 0.0, 0, None],
            [1, 1.5, 1, 0],
            [2, 2.5, 1, 0],
            [3, 4.0, 2, 1],
        ],
    }


def _hub_document(kind):
    """A released hub-set or hub-bounded synopsis document with at
    least two hubs and a non-empty ball table."""
    from repro.apsp import HubSetBoundedRelease, HubSetRelease
    from repro.serving import HubBoundedSynopsis, HubSetSynopsis

    graph = generators.grid_graph(6, 6)
    if kind == "hub-set":
        synopsis = HubSetSynopsis.from_release(
            HubSetRelease(graph, 1.0, Rng(5))
        )
    else:
        synopsis = HubBoundedSynopsis.from_release(
            HubSetBoundedRelease(graph, 1.0, 1.0, Rng(5), k=1)
        )
    document = json.loads(synopsis.to_json())
    assert len(document["hubs"]) >= 2 and document["ball"]
    return document


_NAN = float("nan")

#: One malformation of the tree document per case.
_TREE_MALFORMED = {
    # 1 and 2 name each other: the LCA walk from 1 never ends.
    "parent-cycle": _set((("vertices", 1, 3), 2), (("vertices", 2, 3), 1)),
    "unknown-parent": _set((("vertices", 3, 3), 99)),
    "second-root": _set((("vertices", 3, 3), None)),
    "root-has-parent": _set((("root",), 1)),
    "root-below-depth-zero": _set((("vertices", 0, 2), 1)),
    "depth-skips-level": _set((("vertices", 3, 2), 3)),
    "nan-estimate": _set((("vertices", 3, 1), _NAN)),
}

#: One malformation of a hub structure's fields per case.
_HUB_MALFORMED = {
    "hub-past-last-site": _set((("hubs", 0), lambda d: d["num_sites"])),
    "hub-negative": _set((("hubs", 0), -1)),
    "hub-repeated": _set((("hubs", 1), lambda d: d["hubs"][0])),
    "ball-lo-equals-hi": _set(
        (("ball", 0, 1), lambda d: d["ball"][0][0]),
    ),
    "ball-lo-above-hi": _set(
        (("ball", 0, 0), lambda d: d["ball"][0][1] + 1),
    ),
    "ball-hi-past-last-site": _set(
        (("ball", 0, 1), lambda d: d["num_sites"]),
    ),
    "nan-hub-entry": _set((("matrix", 0, 1), _NAN)),
    "nan-ball-entry": _set((("ball", 0, 2), _NAN)),
}


#: The released pair table of each pair-table kind.
_TABLE = {
    "all-pairs": "pairs",
    "single-pair": "pairs",
    "bounded-weight": "covering_pairs",
}


def _pair_document(kind):
    """A released all-pairs, single-pair or bounded-weight synopsis
    document with at least three table rows; the bounded-weight
    covering has at least three vertices."""
    graph = generators.grid_graph(6, 6)
    if kind == "all-pairs":
        synopsis = _all_pairs(generators.grid_graph(3, 3), 1.0, Rng(5))
    elif kind == "single-pair":
        synopsis = build_single_pair_synopsis(
            graph,
            [((0, 0), (5, 5)), ((0, 1), (4, 4)), ((2, 3), (1, 0))],
            1.0,
            Rng(5),
        )
    else:
        synopsis = BoundedWeightSynopsis.from_release(
            release_bounded_weight(graph, 1.0, 1.0, Rng(5), k=1)
        )
    document = json.loads(synopsis.to_json())
    assert len(document[_TABLE[kind]]) >= 3
    return document


def _cell(column, value):
    """Set one cell of the first table row; a callable value is first
    computed from that row."""

    def edit(document, table):
        row = document[table][0]
        row[column] = value(row) if callable(value) else value

    return edit


def _repeat(reverse):
    """Append a second row, with another value, for the first pair."""

    def edit(document, table):
        s, t, value = document[table][0]
        document[table].append(
            [t, s, value + 1.0] if reverse else [s, t, value + 1.0]
        )

    return edit


#: One malformation of a released pair table per case.
_PAIR_MALFORMED = {
    "nan-value": _cell(2, _NAN),
    "inf-value": _cell(2, float("inf")),
    "nan-string": _cell(2, "nan"),
    "pair-repeated": _repeat(reverse=False),
    "pair-repeated-reversed": _repeat(reverse=True),
    "self-pair": _cell(1, lambda row: row[0]),
    "endpoint-outside-vertices": _cell(1, _encode_vertex((99, 99))),
}


class TestMalformedDocuments:
    """The ``repro-synopsis`` reader refuses documents that would
    loop, index outside the sites, answer NaN or fail a query it
    should answer — checked on load, so builds pay nothing."""

    def test_valid_tree_document_loads(self):
        synopsis = synopsis_from_json(json.dumps(_tree_document()))
        assert synopsis.distance(3, 2) == 4.0 + 2.5 - 2.0 * 0.0
        assert synopsis.distance(3, 1) == 4.0 - 1.5

    @pytest.mark.parametrize("case", sorted(_TREE_MALFORMED))
    def test_tree_refused(self, case):
        document = _tree_document()
        _TREE_MALFORMED[case](document)
        with pytest.raises(SynopsisError):
            synopsis_from_json(json.dumps(document))

    @pytest.mark.parametrize("kind", ["hub-set", "hub-bounded"])
    @pytest.mark.parametrize("case", sorted(_HUB_MALFORMED))
    def test_hub_refused(self, case, kind):
        document = _hub_document(kind)
        _HUB_MALFORMED[case](document)
        with pytest.raises(SynopsisError):
            synopsis_from_json(json.dumps(document))

    @pytest.mark.parametrize("kind", sorted(_TABLE))
    def test_valid_pair_document_loads(self, kind):
        document = _pair_document(kind)
        synopsis = synopsis_from_json(json.dumps(document))
        s, t, value = document[_TABLE[kind]][0]
        assert synopsis.distance(_decode_vertex(s), _decode_vertex(t)) == value

    @pytest.mark.parametrize("kind", sorted(_TABLE))
    @pytest.mark.parametrize("case", sorted(_PAIR_MALFORMED))
    def test_pair_table_refused(self, case, kind):
        document = _pair_document(kind)
        _PAIR_MALFORMED[case](document, _TABLE[kind])
        with pytest.raises(SynopsisError):
            synopsis_from_json(json.dumps(document))

    @pytest.mark.parametrize(
        "document",
        [_tree_document, lambda: _pair_document("bounded-weight")],
        ids=["tree", "bounded-weight"],
    )
    def test_missing_noise_scale_refused(self, document):
        # Every writer stores the scale; a document without it is
        # malformed, not an older format to guess a scale for.
        document = document()
        del document["noise_scale"]
        with pytest.raises(SynopsisError, match="noise_scale"):
            synopsis_from_json(json.dumps(document))

    @pytest.mark.parametrize("kind", ["all-pairs", "bounded-weight"])
    def test_missing_pair_refused(self, kind):
        # A workload table answers only its own pairs; these two must
        # answer every pair of their vertices.
        document = _pair_document(kind)
        del document[_TABLE[kind]][-1]
        with pytest.raises(SynopsisError):
            synopsis_from_json(json.dumps(document))

    def test_assignment_outside_covering_refused(self):
        document = _pair_document("bounded-weight")
        covering = [z for _, z in document["assignment"]]
        outside = next(
            v for v, _ in document["assignment"] if v not in covering
        )
        document["assignment"][0][1] = outside
        with pytest.raises(SynopsisError):
            synopsis_from_json(json.dumps(document))
