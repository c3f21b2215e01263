"""Each synopsis kind's answers and noise scales, and a service's
routed scale, as the serving code composed them kind by kind, kept as
a test oracle.

A reference is built from a synopsis's shipped document
(``to_json()``), never from its in-memory state, and answers with the
per-kind rules written out in full:

* single-pair and all-pairs: the pair's released value, 0 on ``(v,
  v)``; scale the per-entry scale (``Q/eps``, or the all-pairs
  accounting over ``V(V-1)/2`` pairs), 0 on ``(v, v)``;
* tree: the LCA identity over the released root estimates; scale the
  per-value scale, 0 on ``(v, v)``;
* bounded-weight: the covering pair's released value, 0 when both
  vertices share a covering vertex, which is also where the scale is 0;
* hub-set and hub-bounded: the noisy min over hub relays, refined by
  the ball entry and clamped at 0, at each vertex's position or
  covering site; scale twice the per-entry scale, or the per-entry
  scale where the ball entry won, 0 on one site.

:func:`reference_service_scale` is the scale a service attached to an
estimate: the owning synopsis's scale for an unsharded service, and
for an intra-shard answer that the relay cap did not win (or with no
relay); the relay chain ``sigma_i + 2 rho + sigma_j`` otherwise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.core.distance_oracle import all_pairs_noise_scale
from repro.exceptions import GraphError, VertexNotFoundError
from repro.graphs.graph import Vertex
from repro.graphs.io import _decode_vertex
from repro.serving.synopsis import DistanceSynopsis, canonical_pair


class _Reference:
    """One synopsis document's answers."""

    def __init__(self, document: Dict[str, Any]) -> None:
        self.eps = float(document["eps"])
        self.delta = float(document["delta"])
        self.vertices: set = set()
        self.noise_scale = 0.0

    def _require(self, *vertices: Vertex) -> None:
        for v in vertices:
            if v not in self.vertices:
                raise VertexNotFoundError(v)

    def distance(self, source: Vertex, target: Vertex) -> float:
        raise NotImplementedError

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        raise NotImplementedError


def _pair_table(rows) -> Dict[Tuple[Vertex, Vertex], float]:
    return {
        canonical_pair(_decode_vertex(s), _decode_vertex(t)): float(value)
        for s, t, value in rows
    }


class _PairTable(_Reference):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.vertices = {_decode_vertex(v) for v in document["vertices"]}
        self.table = _pair_table(document["pairs"])

    def distance(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        if source == target:
            return 0.0
        key = canonical_pair(source, target)
        if key not in self.table:
            raise GraphError(f"pair ({source!r}, {target!r}) not released")
        return self.table[key]

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        return 0.0 if source == target else self.noise_scale


class _SinglePair(_PairTable):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.noise_scale = max(len(self.table), 1) / self.eps


class _AllPairs(_PairTable):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.noise_scale = all_pairs_noise_scale(
            len(self.vertices), self.eps, self.delta
        )


class _Tree(_Reference):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.noise_scale = float(document["noise_scale"])
        self.estimate: Dict[Vertex, float] = {}
        self.depth: Dict[Vertex, int] = {}
        self.parent: Dict[Vertex, Vertex] = {}
        for v, estimate, depth, parent in document["vertices"]:
            v = _decode_vertex(v)
            self.estimate[v] = float(estimate)
            self.depth[v] = int(depth)
            if parent is not None:
                self.parent[v] = _decode_vertex(parent)
        self.vertices = set(self.estimate)

    def _ancestors(self, v: Vertex) -> list:
        chain = [v]
        while chain[-1] in self.parent:
            chain.append(self.parent[chain[-1]])
        return chain

    def distance(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        if source == target:
            return 0.0
        above = set(self._ancestors(source))
        lca = next(v for v in self._ancestors(target) if v in above)
        return (
            self.estimate[source]
            + self.estimate[target]
            - 2.0 * self.estimate[lca]
        )

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        return 0.0 if source == target else self.noise_scale


class _BoundedWeight(_Reference):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.noise_scale = float(document["noise_scale"])
        self.covering = {
            _decode_vertex(v): _decode_vertex(z)
            for v, z in document["assignment"]
        }
        self.vertices = set(self.covering)
        self.table = _pair_table(document["covering_pairs"])

    def distance(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        zu, zv = self.covering[source], self.covering[target]
        if source == target or zu == zv:
            return 0.0
        key = canonical_pair(zu, zv)
        if key not in self.table:
            raise GraphError(f"covering pair ({zu!r}, {zv!r}) not released")
        return self.table[key]

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        if source == target or self.covering[source] == self.covering[target]:
            return 0.0
        return self.noise_scale


class _Hub(_Reference):
    """A hub structure's answers, read through a dict of ball rows."""

    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.noise_scale = float(document["noise_scale"])
        order = [_decode_vertex(v) for v in document["vertices"]]
        self.vertices = set(order)
        self.position = {v: i for i, v in enumerate(order)}
        m = int(document["num_sites"])
        self.matrix = np.asarray(document["matrix"], dtype=float).reshape(
            len(document["hubs"]), m
        )
        self.ball = {
            (int(lo), int(hi)): float(value)
            for lo, hi, value in document["ball"]
        }

    def site(self, v: Vertex) -> int:
        return self.position[v]

    def _relay(self, i: int, j: int) -> float:
        return float(np.min(self.matrix[:, i] + self.matrix[:, j]))

    def distance(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        i, j = self.site(source), self.site(target)
        if i == j:
            return 0.0
        best = self._relay(i, j)
        direct = self.ball.get((min(i, j), max(i, j)))
        if direct is not None and direct < best:
            best = direct
        return max(best, 0.0)

    def noise_scale_for(self, source: Vertex, target: Vertex) -> float:
        self._require(source, target)
        i, j = self.site(source), self.site(target)
        if i == j:
            return 0.0
        direct = self.ball.get((min(i, j), max(i, j)))
        if direct is not None and direct < self._relay(i, j):
            return self.noise_scale
        return 2.0 * self.noise_scale


class _HubBounded(_Hub):
    def __init__(self, document: Dict[str, Any]) -> None:
        super().__init__(document)
        self.assignment = [int(s) for s in document["assignment"]]

    def site(self, v: Vertex) -> int:
        return self.assignment[self.position[v]]


_KINDS = {
    "single-pair": _SinglePair,
    "all-pairs": _AllPairs,
    "tree": _Tree,
    "bounded-weight": _BoundedWeight,
    "hub-set": _Hub,
    "hub-bounded": _HubBounded,
}


def reference(synopsis: DistanceSynopsis) -> _Reference:
    """The reference answers of ``synopsis``, from its document."""
    document = json.loads(synopsis.to_json())
    return _KINDS[document["kind"]](document)


def reference_service_scale(
    service: Any,
    references: Sequence[_Reference],
    source: Vertex,
    target: Vertex,
    value: float,
) -> float:
    """The noise scale ``service`` attached to its answer ``value`` for
    ``(source, target)``; ``references`` holds the reference of each
    of its shard synopses, in shard order."""
    if source == target:
        return 0.0
    i = j = 0
    if service.num_shards > 1:
        i, j = service.plan.shard_of(source), service.plan.shard_of(target)
    own = references[i]
    if i == j and (
        service.relay is None or own.distance(source, target) == value
    ):
        return own.noise_scale_for(source, target)
    return (
        own.noise_scale
        + 2.0 * service.relay.noise_scale
        + references[j].noise_scale
    )
