"""Distance synopses: immutable, serializable release artifacts.

A *synopsis* is the thing a query-serving engine keeps in memory after
paying for a release: everything needed to answer ``distance(s, t)``
queries forever, and nothing else.  Answering from a synopsis is pure
post-processing of a differentially private release, so it costs zero
additional privacy budget no matter how many queries are served
(the post-processing property of DP).

One synopsis class wraps each release family of the paper:

* :class:`SinglePairSynopsis` — a fixed workload of sensitivity-1
  Laplace queries (Section 1.2's opener), noised with one vectorized
  draw;
* :class:`AllPairsSynopsis` — the Section 4 intro baselines
  (:class:`~repro.core.distance_oracle.AllPairsBasicRelease` /
  :class:`~repro.core.distance_oracle.AllPairsAdvancedRelease`);
* :class:`TreeSynopsis` — Algorithm 1 + the Theorem 4.2 LCA identity;
* :class:`BoundedWeightSynopsis` — Algorithm 2's covering table;
* :class:`HubSetSynopsis` / :class:`HubBoundedSynopsis` — the improved
  hub-relay releases of :mod:`repro.apsp` (follow-up work).

Each answer and its scale (``noise_scale_for``) are composed once per
table type.  A *pair table* (single-pair, all-pairs, bounded-weight)
answers through a *site map*, each vertex to the table vertex that
answers for it — itself, or its covering vertex ``z(v)`` — with the
one released value of the sites' pair, at the per-entry scale, or 0
when both share a site.  A *hub structure* (hub-set, hub-bounded) is
read at each vertex's position or covering site.  The *tree* answers
by the LCA identity, at the per-value scale.

Every synopsis exposes the same surface — ``distance(s, t)``,
``noise_scale_for(s, t)``, ``params``, ``kind`` — refuses a vertex it
does not hold with :class:`~repro.exceptions.VertexNotFoundError`, and
serializes to a JSON document containing *only released values and
public topology* (never raw private weights), so a synopsis file can
be shipped to untrusted serving frontends.  :func:`synopsis_from_json`
restores any of them, dispatching on the document's ``kind``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .. import documents
from ..apsp.hubs import HubStructure
from ..core.distance_oracle import all_pairs_noise_scale
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..engine.kernels import pair_distances
from ..exceptions import (
    DisconnectedGraphError,
    GraphError,
    SynopsisError,
    VertexNotFoundError,
)
from ..graphs.graph import Vertex, WeightedGraph
from ..graphs.io import _decode_vertex, _encode_vertex
from ..rng import Rng

__all__ = [
    "DistanceSynopsis",
    "SinglePairSynopsis",
    "AllPairsSynopsis",
    "TreeSynopsis",
    "BoundedWeightSynopsis",
    "HubSetSynopsis",
    "HubBoundedSynopsis",
    "build_single_pair_synopsis",
    "synopsis_from_json",
    "SYNOPSIS_FORMAT",
]

SYNOPSIS_FORMAT = "repro-synopsis"
_SYNOPSIS_VERSION = 1


def canonical_pair(s: Vertex, t: Vertex) -> Tuple[Vertex, Vertex]:
    """A deterministic canonical orientation for an unordered pair.

    Vertices are arbitrary hashables and need not be mutually orderable,
    so the order is taken over ``repr`` — stable, total, and independent
    of insertion order.
    """
    return (s, t) if repr(s) <= repr(t) else (t, s)


def _require_undirected(graph: WeightedGraph, what: str) -> None:
    """Refuse a directed graph, before anything spends: releases and
    answers are keyed by :func:`canonical_pair`, so ``d(s, t)`` and
    ``d(t, s)`` would be served one value."""
    if graph.directed:
        raise GraphError(
            f"{what} answers unordered pairs and refuses a directed graph"
        )


def _encode_pair_table(
    table: Mapping[Tuple[Vertex, Vertex], float]
) -> List[List[Any]]:
    return [
        [_encode_vertex(s), _encode_vertex(t), value]
        for (s, t), value in table.items()
    ]


def _decode_pair_table(
    rows: Iterable[Iterable[Any]], vertices: frozenset
) -> Dict[Tuple[Vertex, Vertex], float]:
    """Decode a released pair table, refusing any row that would
    answer wrongly: one that is not two distinct members of
    ``vertices``, a pair given twice (in either orientation), or a
    non-finite value."""
    table: Dict[Tuple[Vertex, Vertex], float] = {}
    for s, t, value in rows:
        s, t, value = _decode_vertex(s), _decode_vertex(t), float(value)
        if s == t or s not in vertices or t not in vertices:
            raise SynopsisError(
                f"pair ({s!r}, {t!r}) is not two distinct vertices of "
                "the synopsis"
            )
        key = canonical_pair(s, t)
        if key in table:
            raise SynopsisError(f"pair ({s!r}, {t!r}) repeats")
        if not math.isfinite(value):
            raise SynopsisError(f"pair ({s!r}, {t!r}) is {value}")
        table[key] = value
    return table


def _noise_scale(payload: Mapping[str, Any]) -> float:
    """A document's ``noise_scale``, refused unless it is a finite
    positive JSON number: every release adds noise at a positive
    scale, and an estimate's interval is drawn from it."""
    documents.require(
        payload, SynopsisError, "synopsis", {"noise_scale": documents.NUMBER}
    )
    value = float(payload["noise_scale"])
    if not (math.isfinite(value) and value > 0):
        raise SynopsisError(
            f"synopsis noise_scale must be finite and positive, got {value}"
        )
    return value


def _require_every_pair(what: str, entries: int, n: int) -> None:
    """Refuse a decoded table of ``entries`` distinct pairs of ``n``
    vertices that misses one of their pairs, whose query would fail."""
    expected = n * (n - 1) // 2
    if entries != expected:
        raise SynopsisError(
            f"{what} holds {entries} of the {expected} pairs of its "
            f"{n} vertices"
        )


class DistanceSynopsis:
    """Base class for all distance synopses.

    Subclasses set the class attribute ``kind`` (the document key),
    implement :meth:`distance`, :meth:`noise_scale_for` and the
    ``_payload`` / ``_from_payload`` serialization hooks, and treat
    all state as immutable after construction — a synopsis is a
    released artifact, so mutating it would break both
    reproducibility and the privacy accounting attached to it.
    """

    kind: str = ""

    def __init__(self, params: PrivacyParams) -> None:
        self._params = params

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee paid for this synopsis."""
        return self._params

    def distance(self, source: Vertex, target: Vertex) -> float:
        """The released (noisy) distance between a pair of vertices."""
        raise NotImplementedError

    @property
    def noise_scale(self) -> float:
        """The representative per-released-entry Laplace scale — what
        one table entry of this synopsis was perturbed with.  The raw
        material for :class:`~repro.serving.estimates.Estimate`."""
        raise NotImplementedError

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        """The effective noise scale behind ``distance(source, target)``:
        0 for a deterministic answer such as ``distance(v, v)``.  Like
        :meth:`distance`, refuses a vertex the synopsis does not hold
        with :class:`~repro.exceptions.VertexNotFoundError`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        """Subclass hook: the kind-specific JSON-safe fields."""
        raise NotImplementedError

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "DistanceSynopsis":
        """Subclass hook: rebuild from :meth:`_payload` output."""
        raise NotImplementedError

    def to_json(self) -> str:
        """Serialize to a JSON document (released values + public
        topology only — safe to publish under ``params``)."""
        return json.dumps(
            documents.new(
                SYNOPSIS_FORMAT,
                _SYNOPSIS_VERSION,
                kind=self.kind,
                eps=self._params.eps,
                delta=self._params.delta,
                **self._payload(),
            )
        )


def synopsis_from_json(text: str) -> DistanceSynopsis:
    """Restore any synopsis from :meth:`DistanceSynopsis.to_json`
    output, dispatching on the document's ``kind``."""
    document = documents.parse(
        text, SYNOPSIS_FORMAT, _SYNOPSIS_VERSION, SynopsisError, "synopsis",
        {"kind": str},
    )
    kind = document["kind"]
    if kind not in _KINDS:
        raise SynopsisError(
            f"unknown synopsis kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_KINDS))}"
        )
    with documents.decoding(SynopsisError, f"{kind} synopsis"):
        params = PrivacyParams(
            float(document["eps"]), float(document["delta"])
        )
        return _KINDS[kind]._from_payload(document, params)


class _PairTableSynopsis(DistanceSynopsis):
    """Shared machinery for synopses backed by an unordered pair table,
    read through the site map ``_sites``: every vertex is its own site
    unless a covering kind re-points it."""

    def __init__(
        self,
        params: PrivacyParams,
        table: Mapping[Tuple[Vertex, Vertex], float],
        vertices: Iterable[Vertex],
    ) -> None:
        super().__init__(params)
        self._table = {
            canonical_pair(s, t): float(v) for (s, t), v in table.items()
        }
        self._sites: Dict[Vertex, Vertex] = {v: v for v in vertices}

    @property
    def vertices(self) -> frozenset:
        """The vertex set this synopsis can answer about."""
        return frozenset(self._sites)

    @property
    def num_entries(self) -> int:
        """The number of released pair values held."""
        return len(self._table)

    def _site(self, v: Vertex) -> Vertex:
        try:
            return self._sites[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def distance(self, source: Vertex, target: Vertex) -> float:
        zu, zv = self._site(source), self._site(target)
        if zu == zv:
            return 0.0
        key = canonical_pair(zu, zv)
        if key not in self._table:
            raise GraphError(
                f"pair ({source!r}, {target!r}) is not covered by this "
                f"{self.kind} synopsis"
            )
        return self._table[key]

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        """The per-entry :attr:`noise_scale` (each answer reads one
        table entry), or 0 when the pair shares a site."""
        if self._site(source) == self._site(target):
            return 0.0
        return self.noise_scale

    def _payload(self) -> Dict[str, Any]:
        # Sorted like canonical_pair orients pairs, so the bytes do not
        # depend on the process's hash seed.
        return {
            "vertices": [
                _encode_vertex(v) for v in sorted(self._sites, key=repr)
            ],
            "pairs": _encode_pair_table(self._table),
        }

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "_PairTableSynopsis":
        vertices = frozenset(_decode_vertex(v) for v in payload["vertices"])
        return cls(
            params, _decode_pair_table(payload["pairs"], vertices), vertices
        )


class SinglePairSynopsis(_PairTableSynopsis):
    """A synopsis for an explicit pair workload.

    Built by :func:`build_single_pair_synopsis`: the ``Q`` distinct
    pair queries form a sensitivity-``Q`` vector (each query has
    sensitivity 1), so ``Lap(Q/eps)`` noise per answer is eps-DP by the
    vector Laplace mechanism — the serving-batch analogue of the
    paper's single-query opener.  Only the workload pairs can be
    answered; anything else raises.
    """

    kind = "single-pair"

    @property
    def noise_scale(self) -> float:
        """``Lap(Q/eps)`` over the ``Q`` distinct workload pairs —
        recomputed from the table size, so it survives JSON round
        trips exactly."""
        return max(self.num_entries, 1) / self._params.eps


class AllPairsSynopsis(_PairTableSynopsis):
    """A synopsis wrapping the Section 4 intro all-pairs baselines.

    Holds every released unordered-pair distance from an
    :class:`~repro.core.distance_oracle.AllPairsBasicRelease` or
    :class:`~repro.core.distance_oracle.AllPairsAdvancedRelease`.
    """

    kind = "all-pairs"

    @property
    def noise_scale(self) -> float:
        """The shared all-pairs accounting over ``V(V-1)/2`` pairs —
        recomputed from the vertex set and budget, so it survives JSON
        round trips exactly."""
        return all_pairs_noise_scale(
            len(self._sites), self._params.eps, self._params.delta
        )

    @classmethod
    def from_release(cls, release: Any) -> "AllPairsSynopsis":
        """Wrap an all-pairs release object (basic or advanced).  Its
        graph is connected, so every vertex is answerable (a lone
        vertex only about itself)."""
        return cls(
            release.params, release.all_released(), release.graph.vertices()
        )

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "AllPairsSynopsis":
        synopsis = super()._from_payload(payload, params)
        _require_every_pair(
            "all-pairs synopsis", synopsis.num_entries, len(synopsis.vertices)
        )
        return synopsis


class TreeSynopsis(DistanceSynopsis):
    """A synopsis of Algorithm 1's tree release (Theorems 4.1/4.2).

    Stores the released root-to-vertex estimates plus the *public* tree
    structure (parents and depths — never edge weights), and answers
    any pair via the LCA identity
    ``d(x, y) = d(v0, x) + d(v0, y) - 2 d(v0, lca(x, y))`` — pure
    post-processing, so all ``V^2`` pairs cost the one release.
    """

    kind = "tree"

    def __init__(
        self,
        params: PrivacyParams,
        root: Vertex,
        estimates: Mapping[Vertex, float],
        parent: Mapping[Vertex, Vertex | None],
        depth: Mapping[Vertex, int],
        noise_scale: float,
    ) -> None:
        super().__init__(params)
        self._root = root
        self._estimates = dict(estimates)
        self._parent = dict(parent)
        self._depth = dict(depth)
        self._noise_scale = float(noise_scale)

    @classmethod
    def from_release(cls, release: Any) -> "TreeSynopsis":
        """Wrap a :class:`~repro.core.tree_distances.TreeAllPairsRelease`."""
        tree = release.single_source.tree
        parent = {v: tree.parent(v) for v in tree.preorder()}
        depth = {v: tree.depth(v) for v in tree.preorder()}
        return cls(
            release.params,
            tree.root,
            release.single_source.all_distances(),
            parent,
            depth,
            noise_scale=release.single_source.noise_scale,
        )

    @property
    def noise_scale(self) -> float:
        """The Laplace scale per released recursion value.  A pair
        answer combines up to three root estimates (each a short sum
        of released values), so per-answer noise is a small multiple
        of this scale rather than a single Laplace draw."""
        return self._noise_scale

    @property
    def root(self) -> Vertex:
        """The (public, arbitrary) root the release was run from."""
        return self._root

    @property
    def vertices(self) -> frozenset:
        """The vertex set this synopsis can answer about."""
        return frozenset(self._estimates)

    def _lca(self, x: Vertex, y: Vertex) -> Vertex:
        while self._depth[x] > self._depth[y]:
            x = self._parent[x]
        while self._depth[y] > self._depth[x]:
            y = self._parent[y]
        while x != y:
            x = self._parent[x]
            y = self._parent[y]
        return x

    def _require(self, source: Vertex, target: Vertex) -> None:
        for v in (source, target):
            if v not in self._estimates:
                raise VertexNotFoundError(v)

    def distance(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        if source == target:
            return 0.0
        z = self._lca(source, target)
        return (
            self._estimates[source]
            + self._estimates[target]
            - 2.0 * self._estimates[z]
        )

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        """The per-value :attr:`noise_scale`, or 0 for ``distance(v,
        v)``."""
        self._require(source, target)
        return 0.0 if source == target else self._noise_scale

    def _payload(self) -> Dict[str, Any]:
        return {
            "root": _encode_vertex(self._root),
            "noise_scale": self._noise_scale,
            "vertices": [
                # One row per vertex: label, released estimate, depth,
                # parent (None for the root).
                [
                    _encode_vertex(v),
                    self._estimates[v],
                    self._depth[v],
                    None
                    if self._parent[v] is None
                    else _encode_vertex(self._parent[v]),
                ]
                for v in self._estimates
            ],
        }

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "TreeSynopsis":
        estimates: Dict[Vertex, float] = {}
        parent: Dict[Vertex, Vertex | None] = {}
        depth: Dict[Vertex, int] = {}
        for row in payload["vertices"]:
            v = _decode_vertex(row[0])
            estimates[v] = float(row[1])
            depth[v] = int(row[2])
            parent[v] = None if row[3] is None else _decode_vertex(row[3])
        root = _decode_vertex(payload["root"])
        _check_tree(root, estimates, parent, depth)
        return cls(
            params,
            root,
            estimates,
            parent,
            depth,
            noise_scale=_noise_scale(payload),
        )


def _check_tree(
    root: Vertex,
    estimates: Mapping[Vertex, float],
    parent: Mapping[Vertex, Vertex | None],
    depth: Mapping[Vertex, int],
) -> None:
    """Refuse a decoded tree whose answers would be wrong or never
    come: the one parentless vertex must be ``root`` at depth 0, and
    every other vertex's parent a known vertex one level up — so every
    parent chain strictly climbs to the root and the LCA walk ends.
    Every released estimate must be finite."""
    roots = [v for v, p in parent.items() if p is None]
    if roots != [root] or depth[root] != 0:
        raise SynopsisError(
            f"tree synopsis must have exactly one root, {root!r} at "
            f"depth 0; found roots {roots!r}"
        )
    for v, p in parent.items():
        if p is None:
            continue
        if p not in depth:
            raise SynopsisError(
                f"tree synopsis parent {p!r} of {v!r} is not a vertex"
            )
        if depth[v] != depth[p] + 1:
            raise SynopsisError(
                f"tree synopsis vertex {v!r} at depth {depth[v]} is not "
                f"one level below its parent {p!r} at depth {depth[p]}"
            )
    if not all(math.isfinite(x) for x in estimates.values()):
        raise SynopsisError("tree synopsis holds a non-finite estimate")


class BoundedWeightSynopsis(_PairTableSynopsis):
    """A synopsis of Algorithm 2's covering release (Section 4.2).

    A pair table whose site map is the covering assignment ``z(v)``
    (public — it depends only on hop distances in the topology), over
    the released noisy distances between covering pairs; any query
    ``(u, v)`` is answered as ``a_{z(u), z(v)}``.
    """

    kind = "bounded-weight"

    def __init__(
        self,
        params: PrivacyParams,
        assignment: Mapping[Vertex, Vertex],
        covering_table: Mapping[Tuple[Vertex, Vertex], float],
        weight_bound: float,
        k: int,
        noise_scale: float,
    ) -> None:
        # The assignment's keys are the vertices; each answers through
        # its covering vertex.
        super().__init__(params, covering_table, assignment)
        self._sites.update(assignment)
        self._weight_bound = float(weight_bound)
        self._k = int(k)
        self._noise_scale = float(noise_scale)

    @classmethod
    def from_release(cls, release: Any) -> "BoundedWeightSynopsis":
        """Wrap a :class:`~repro.core.bounded_weight.BoundedWeightRelease`."""
        assignment = {
            v: release.assigned_covering_vertex(v)
            for v in release.graph.vertices()
        }
        return cls(
            release.params,
            assignment,
            release.all_released(),
            release.weight_bound,
            release.k,
            noise_scale=release.noise_scale,
        )

    @property
    def noise_scale(self) -> float:
        """The Laplace scale per released covering-pair distance
        (per-answer exact: each query reads one table entry).  The
        covering detour ``<= 2kM`` is a separate, deterministic error
        term not captured here."""
        return self._noise_scale

    @property
    def weight_bound(self) -> float:
        """The public weight bound ``M`` the release assumed."""
        return self._weight_bound

    @property
    def k(self) -> int:
        """The covering radius in hops (error is ``<= 2kM`` + noise)."""
        return self._k

    def _payload(self) -> Dict[str, Any]:
        return {
            "weight_bound": self._weight_bound,
            "k": self._k,
            "noise_scale": self._noise_scale,
            "assignment": [
                [_encode_vertex(v), _encode_vertex(z)]
                for v, z in self._sites.items()
            ],
            "covering_pairs": _encode_pair_table(self._table),
        }

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "BoundedWeightSynopsis":
        assignment = {
            _decode_vertex(v): _decode_vertex(z)
            for v, z in payload["assignment"]
        }
        # Every vertex the assignment names is a covering vertex, so
        # the table must hold exactly the pairs among them.
        covering = frozenset(assignment.values())
        table = _decode_pair_table(payload["covering_pairs"], covering)
        _require_every_pair("covering table", len(table), len(covering))
        return cls(
            params,
            assignment,
            table,
            float(payload["weight_bound"]),
            int(payload["k"]),
            noise_scale=_noise_scale(payload),
        )


def _encode_hub_structure(structure: HubStructure) -> Dict[str, Any]:
    """JSON-safe fields of a released hub structure (all entries are
    released values or public topology)."""
    lo, hi = np.divmod(structure.ball_keys, structure.num_sites)
    return {
        "num_sites": structure.num_sites,
        "hubs": [int(p) for p in structure.hub_positions],
        "matrix": [
            [float(x) for x in row] for row in structure.matrix
        ],
        "ball": [
            list(row)
            for row in zip(
                lo.tolist(), hi.tolist(), structure.ball_values.tolist()
            )
        ],
        "noise_scale": structure.noise_scale,
        "pair_count": structure.pair_count,
    }


def _decode_hub_structure(payload: Dict[str, Any]) -> HubStructure:
    """Rebuild a hub structure from its JSON fields, refusing any that
    would index outside the sites, answer a non-finite value or
    misstate the release: hub positions distinct and in ``[0, m)``,
    ball rows distinct pairs ``lo < hi < m``, and ``pair_count`` the
    hub table's ``h(m-h) + h(h-1)/2`` pairs plus the ball rows.  The
    rows may come in any order; the structure holds them sorted by
    key."""
    m = int(payload["num_sites"])
    hubs = np.asarray(payload["hubs"], dtype=np.int64)
    if hubs.size and not (0 <= hubs.min() and hubs.max() < m):
        raise SynopsisError(f"hub positions must lie in [0, {m})")
    if np.unique(hubs).size != hubs.size:
        raise SynopsisError("hub positions repeat")
    keys: List[int] = []
    values: List[float] = []
    seen = set()
    for lo, hi, value in payload["ball"]:
        lo, hi, value = int(lo), int(hi), float(value)
        if not 0 <= lo < hi < m:
            raise SynopsisError(
                f"ball row ({lo}, {hi}) is not a site pair lo < hi < {m}"
            )
        if lo * m + hi in seen:
            raise SynopsisError(f"ball row ({lo}, {hi}) repeats")
        if not math.isfinite(value):
            raise SynopsisError(f"ball row ({lo}, {hi}) is {value}")
        seen.add(lo * m + hi)
        keys.append(lo * m + hi)
        values.append(value)
    ball_keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(ball_keys)
    matrix = np.asarray(payload["matrix"], dtype=float).reshape(
        len(hubs), m
    )
    if not np.isfinite(matrix).all():
        raise SynopsisError("hub table holds a non-finite entry")
    h = len(hubs)
    pair_count = int(payload["pair_count"])
    if pair_count != h * (m - h) + h * (h - 1) // 2 + len(keys):
        raise SynopsisError(
            f"pair_count {pair_count} is not the {h}-hub table's pairs "
            f"plus {len(keys)} ball rows over {m} sites"
        )
    return HubStructure(
        num_sites=m,
        hub_positions=hubs,
        matrix=matrix,
        ball_keys=ball_keys[order],
        ball_values=np.asarray(values, dtype=float)[order],
        noise_scale=_noise_scale(payload),
        pair_count=pair_count,
    )


class _HubSynopsis(DistanceSynopsis):
    """Shared machinery for synopses answered by a released hub
    structure, read at each vertex's :meth:`_site`: its position in
    the vertex list unless a covering kind re-points it."""

    def __init__(
        self,
        params: PrivacyParams,
        vertices: Sequence[Vertex],
        structure: HubStructure,
    ) -> None:
        super().__init__(params)
        self._order = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self._order)}
        self._structure = structure

    @property
    def vertices(self) -> frozenset:
        """The vertex set this synopsis can answer about."""
        return frozenset(self._order)

    @property
    def structure(self) -> HubStructure:
        """The released hub structure."""
        return self._structure

    @property
    def noise_scale(self) -> float:
        """The Laplace scale on each released entry."""
        return self._structure.noise_scale

    def _site(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def distance(self, source: Vertex, target: Vertex) -> float:
        return self._structure.estimate(
            self._site(source), self._site(target)
        )

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        """The composed relay scale (two summed entries), or the
        direct per-entry scale when the pair hits a local-ball
        release; 0 when both endpoints share a site."""
        return self._structure.scale_for(
            self._site(source), self._site(target)
        )


class HubSetSynopsis(_HubSynopsis):
    """A synopsis of the improved hub-set release
    (:class:`repro.apsp.hubs.HubSetRelease`).

    Stores the ordered vertex list (site order), the noisy
    vertex<->hub matrix, and the local-ball table; answers any pair by
    the noisy min over hub relays refined by the ball entry — pure
    post-processing, ``~V^{3/2}`` released values instead of ``V^2``.
    """

    kind = "hub-set"

    def __init__(
        self,
        params: PrivacyParams,
        vertices: Sequence[Vertex],
        structure: HubStructure,
    ) -> None:
        super().__init__(params, vertices, structure)
        if len(self._order) != structure.num_sites:
            raise GraphError(
                f"{len(self._order)} vertices do not match "
                f"{structure.num_sites} hub-structure sites"
            )

    @classmethod
    def from_release(cls, release: Any) -> "HubSetSynopsis":
        """Wrap a :class:`repro.apsp.hubs.HubSetRelease`."""
        return cls(release.params, release.vertex_order, release.structure)

    @property
    def hubs(self) -> List[Vertex]:
        """The sampled hub vertices."""
        return [
            self._order[int(p)]
            for p in self._structure.hub_positions
        ]

    def _payload(self) -> Dict[str, Any]:
        payload = {
            "vertices": [_encode_vertex(v) for v in self._order],
        }
        payload.update(_encode_hub_structure(self._structure))
        return payload

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "HubSetSynopsis":
        return cls(
            params,
            [_decode_vertex(v) for v in payload["vertices"]],
            _decode_hub_structure(payload),
        )


class HubBoundedSynopsis(_HubSynopsis):
    """A synopsis of the hub-over-covering release
    (:class:`repro.apsp.bounded.HubSetBoundedRelease`).

    Stores the (public) covering assignment as site indices per vertex
    plus the inner hub structure over the covering vertices; a query
    ``(u, v)`` is answered as ``hub(z(u), z(v))``.
    """

    kind = "hub-bounded"

    def __init__(
        self,
        params: PrivacyParams,
        vertices: Sequence[Vertex],
        assignment: Sequence[int],
        structure: HubStructure,
        weight_bound: float,
        k: int,
    ) -> None:
        super().__init__(params, vertices, structure)
        self._assignment = [int(s) for s in assignment]
        if len(self._assignment) != len(self._order):
            raise GraphError(
                f"{len(self._assignment)} assignments do not match "
                f"{len(self._order)} vertices"
            )
        for s in self._assignment:
            if not 0 <= s < structure.num_sites:
                raise GraphError(
                    f"assignment site {s} out of range "
                    f"[0, {structure.num_sites})"
                )
        self._weight_bound = float(weight_bound)
        self._k = int(k)

    @classmethod
    def from_release(cls, release: Any) -> "HubBoundedSynopsis":
        """Wrap a :class:`repro.apsp.bounded.HubSetBoundedRelease`."""
        site_of = {z: i for i, z in enumerate(release.covering)}
        order = release.vertex_order
        assignment = [
            site_of[release.assigned_covering_vertex(v)] for v in order
        ]
        return cls(
            release.params,
            order,
            assignment,
            release.structure,
            release.weight_bound,
            release.k,
        )

    @property
    def weight_bound(self) -> float:
        """The public weight bound ``M`` the release assumed."""
        return self._weight_bound

    @property
    def k(self) -> int:
        """The covering radius in hops (detour error ``<= 2kM``)."""
        return self._k

    def _site(self, v: Vertex) -> int:
        """``v``'s covering site."""
        return self._assignment[super()._site(v)]

    def _payload(self) -> Dict[str, Any]:
        payload = {
            "vertices": [_encode_vertex(v) for v in self._order],
            "assignment": list(self._assignment),
            "weight_bound": self._weight_bound,
            "k": self._k,
        }
        payload.update(_encode_hub_structure(self._structure))
        return payload

    @classmethod
    def _from_payload(
        cls, payload: Dict[str, Any], params: PrivacyParams
    ) -> "HubBoundedSynopsis":
        return cls(
            params,
            [_decode_vertex(v) for v in payload["vertices"]],
            payload["assignment"],
            _decode_hub_structure(payload),
            float(payload["weight_bound"]),
            int(payload["k"]),
        )


#: The synopsis class of each document ``kind``: what
#: :func:`synopsis_from_json` dispatches on.
_KINDS = {
    cls.kind: cls
    for cls in (
        SinglePairSynopsis,
        AllPairsSynopsis,
        TreeSynopsis,
        BoundedWeightSynopsis,
        HubSetSynopsis,
        HubBoundedSynopsis,
    )
}


def build_single_pair_synopsis(
    graph: WeightedGraph,
    pairs: Iterable[Tuple[Vertex, Vertex]],
    eps: float,
    rng: Rng,
) -> SinglePairSynopsis:
    """Release a fixed pair workload as a :class:`SinglePairSynopsis`.

    The distinct (unordered) pairs form a query vector of L1
    sensitivity ``Q`` (each distance query has sensitivity 1), so one
    vectorized ``Lap(Q/eps)`` draw over the whole vector is eps-DP.
    Exact distances come from blocked sweeps over the distinct sources
    (:func:`~repro.engine.kernels.pair_distances`), not one search per
    pair.  A directed graph is refused: the workload is keyed by
    unordered pair.
    """
    params = PrivacyParams(eps)  # validates eps before any work
    return _release_pairs(params, graph, _exact_pairs(graph, pairs), rng)


def _exact_pairs(  # privlint: ignore[PL1] the exact values only feed _release_pairs' noise draw
    graph: WeightedGraph, pairs: Iterable[Tuple[Vertex, Vertex]]
) -> Dict[Tuple[Vertex, Vertex], float]:
    """The exact distance of each distinct unordered pair of a
    workload, self pairs dropped, in first-seen order, swept from each
    pair's :func:`canonical_pair` source.  Makes every check a pair
    workload release makes, and draws nothing: a directed graph, a
    vertex outside the graph, a negative or non-finite weight and a
    pair with no path raise."""
    _require_undirected(graph, "a pair workload release")
    unique = list(
        dict.fromkeys(canonical_pair(s, t) for s, t in pairs if s != t)
    )
    csr = CSRGraph.from_graph(graph)
    ends = csr.indices_of([v for pair in unique for v in pair])
    graph.check_nonnegative()
    exact = pair_distances(csr, ends[0::2], ends[1::2])
    unreachable = np.flatnonzero(np.isinf(exact))
    if unreachable.size:
        s, t = unique[unreachable[0]]
        raise DisconnectedGraphError(f"no path from {s!r} to {t!r}")
    return dict(zip(unique, exact.tolist()))


def _release_pairs(
    params: PrivacyParams,
    graph: WeightedGraph,
    exact: Dict[Tuple[Vertex, Vertex], float],
    rng: Rng,
) -> SinglePairSynopsis:
    """One ``Lap(Q/eps)`` draw over the ``Q`` pairs of ``exact``, in
    its order."""
    scale = max(len(exact), 1) / params.eps
    noise = rng.laplace_vector(scale, len(exact))
    table = {
        pair: value + float(x)
        for (pair, value), x in zip(exact.items(), noise)
    }
    return SinglePairSynopsis(params, table, graph.vertices())
