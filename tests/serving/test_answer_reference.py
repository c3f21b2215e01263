"""Every synopsis kind answers, and states its noise scale, exactly as
the per-kind rules in ``answer_reference`` do, over every ordered
vertex pair (self pairs included) of small weighted grids and a
weighted tree, unsharded and at 2 and 4 shards; and the rule changes
that came with composing each answer once: a vertex a synopsis does
not hold is refused by ``noise_scale_for`` as by ``distance``, and a
covering table missing a pair refuses with the pair-table message."""

from __future__ import annotations

import itertools

import pytest

from repro import AllPairsBasicRelease, DistanceService, PrivacyParams, Rng
from repro.exceptions import GraphError, PrivacyError, VertexNotFoundError
from repro.graphs import generators
from repro.serving import (
    AllPairsSynopsis,
    BoundedWeightSynopsis,
    build_single_pair_synopsis,
)
from repro.workloads import grid_road_network

from answer_reference import reference, reference_service_scale


def _weighted_tree():
    tree = generators.random_tree(12, Rng(3))
    return tree.with_weights(Rng(4).uniform_vector(1.0, 3.0, tree.num_edges))


GRAPHS = {
    "grid4x4": grid_road_network(4, 4, Rng(1)).graph,
    "grid3x5": grid_road_network(3, 5, Rng(2)).graph,
    "tree12": _weighted_tree(),
}

#: (mechanism, weight bound, delta): every catalog mechanism, each
#: with what it needs.
MECHANISMS = [
    ("all-pairs-basic", None, 0.0),
    ("all-pairs-advanced", None, 1e-6),
    ("tree", None, 0.0),
    ("bounded-weight", 10.0, 0.0),
    ("hub-set", None, 0.0),
    ("hub-bounded", 10.0, 0.0),
]

CASES = [
    pytest.param(graph, mechanism, bound, delta, eps, shards, id=(
        f"{graph}-{mechanism}-eps{eps:g}-{shards}shard"
    ))
    for graph in GRAPHS
    for mechanism, bound, delta in MECHANISMS
    if mechanism != "tree" or graph.startswith("tree")
    for eps in (1.0, 1e6)
    for shards in (1, 2, 4)
]


def _check_synopsis(synopsis) -> None:
    """Every ordered pair of the synopsis's vertices answers and
    scales as its reference does."""
    ref = reference(synopsis)
    assert synopsis.noise_scale == ref.noise_scale
    for s, t in itertools.product(sorted(ref.vertices, key=repr), repeat=2):
        assert synopsis.distance(s, t) == ref.distance(s, t), (s, t)
        assert synopsis.noise_scale_for(s, t) == ref.noise_scale_for(
            s, t
        ), (s, t)


def _check_service(service) -> None:
    """Each shard synopsis matches its reference, and every estimate
    the service serves carries the reference's routed scale."""
    references = [reference(s) for s in service.shard_synopses]
    for synopsis in service.shard_synopses:
        _check_synopsis(synopsis)
    vertices = sorted(
        set().union(*(ref.vertices for ref in references)), key=repr
    )
    for s, t in itertools.product(vertices, repeat=2):
        estimate = service.estimate(s, t)
        assert estimate.value == service.query(s, t)
        assert estimate.noise_scale == reference_service_scale(
            service, references, s, t, estimate.value
        ), (s, t)


@pytest.mark.parametrize("graph,mechanism,bound,delta,eps,shards", CASES)
def test_answers_and_scales_match_the_reference(
    graph, mechanism, bound, delta, eps, shards
):
    service = DistanceService(
        GRAPHS[graph],
        PrivacyParams(eps, delta),
        Rng(7),
        weight_bound=bound,
        mechanism=mechanism,
        shards=shards,
    )
    _check_service(service)


@pytest.mark.parametrize("mechanism", ["hub-set", "bounded-weight"])
def test_routed_scale_without_a_relay(mechanism):
    """After a refused relay rebuild the shards keep serving their own
    answers at their own scales, and cross-shard pairs refuse."""
    service = DistanceService(
        GRAPHS["grid4x4"], 1e6, Rng(8), weight_bound=10.0,
        mechanism=mechanism, shards=2,
    )
    service.refresh_shard(0)
    with pytest.raises(PrivacyError):
        # Shard 1 fits its cap again; the relay's third spend does not.
        service.refresh_shard(1)
    assert service.relay is None
    references = [reference(s) for s in service.shard_synopses]
    plan = service.plan
    for s, t in itertools.product(plan.assignment(), repeat=2):
        if plan.shard_of(s) != plan.shard_of(t):
            with pytest.raises(PrivacyError):
                service.estimate(s, t)
            continue
        estimate = service.estimate(s, t)
        assert estimate.noise_scale == reference_service_scale(
            service, references, s, t, estimate.value
        )


def test_single_pair_synopsis_matches_the_reference():
    grid = GRAPHS["grid4x4"]
    pairs = [((0, 0), (3, 3)), ((1, 2), (2, 1)), ((0, 3), (3, 0))]
    for eps in (1.0, 1e6):
        synopsis = build_single_pair_synopsis(grid, pairs, eps, Rng(9))
        ref = reference(synopsis)
        assert synopsis.noise_scale == ref.noise_scale
        for s, t in itertools.product(ref.vertices, repeat=2):
            assert synopsis.noise_scale_for(s, t) == ref.noise_scale_for(
                s, t
            )
            if s == t or {s, t} in [set(p) for p in pairs]:
                assert synopsis.distance(s, t) == ref.distance(s, t)
            else:
                with pytest.raises(GraphError, match="is not covered"):
                    synopsis.distance(s, t)


def _synopsis_of(kind: str):
    """One synopsis of ``kind``, on the small grid or the tree."""
    grid, tree = GRAPHS["grid4x4"], GRAPHS["tree12"]
    if kind == "single-pair":
        return build_single_pair_synopsis(
            grid, [((0, 0), (3, 3))], 1.0, Rng(10)
        )
    if kind == "all-pairs":
        return AllPairsSynopsis.from_release(
            AllPairsBasicRelease(grid, 1.0, Rng(11))
        )
    return DistanceService(
        tree if kind == "tree" else grid, 1e6, Rng(12),
        weight_bound=10.0, mechanism=kind,
    ).synopsis


@pytest.mark.parametrize(
    "kind",
    [
        "single-pair",
        "all-pairs",
        "tree",
        "bounded-weight",
        "hub-set",
        "hub-bounded",
    ],
)
def test_noise_scale_for_refuses_an_unknown_vertex(kind):
    """``noise_scale_for`` refuses a vertex the synopsis does not hold,
    as ``distance`` does, whichever side it is on."""
    synopsis = _synopsis_of(kind)
    assert synopsis.kind == kind
    held = next(iter(synopsis.vertices))
    for s, t in [("nowhere", held), (held, "nowhere"), ("nowhere",) * 2]:
        with pytest.raises(VertexNotFoundError):
            synopsis.distance(s, t)
        with pytest.raises(VertexNotFoundError):
            synopsis.noise_scale_for(s, t)


def test_covering_table_missing_a_pair_refuses_like_a_pair_table():
    """A hand-built covering synopsis whose table misses a covering
    pair refuses that pair's queries with the pair-table message, and
    still answers its same-site and released pairs."""
    synopsis = BoundedWeightSynopsis(
        PrivacyParams(1.0),
        {"a": "a", "b": "a", "c": "c", "d": "d"},
        {("a", "c"): 4.0},
        weight_bound=1.0,
        k=1,
        noise_scale=2.0,
    )
    assert synopsis.distance("a", "b") == 0.0
    assert synopsis.noise_scale_for("a", "b") == 0.0
    assert synopsis.distance("b", "c") == 4.0
    assert synopsis.noise_scale_for("b", "c") == 2.0
    with pytest.raises(
        GraphError,
        match=r"pair \('b', 'd'\) is not covered by this bounded-weight "
        r"synopsis",
    ):
        synopsis.distance("b", "d")

