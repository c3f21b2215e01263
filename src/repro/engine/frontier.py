"""Level-synchronous breadth-first search over CSR arrays.

Hop counts, reachability and connectivity read the public topology
only.  :class:`FrontierSearch` answers the first two one vectorized
level at a time, from a chunk of sources at once, and touches only the
vertices each source reaches: no dense ``sources x V`` block is built
or scanned.  The hub build's one search for its balls and partner
trees (:mod:`repro.apsp.hubs`) and the sites' reachability on a
directed graph (:func:`reached`) run on it.  The connectivity check
(:func:`is_weakly_connected`, behind every release's and
:func:`repro.algorithms.traversal.is_connected`) needs no levels: it
is a union-find over the compiled edge-endpoint arrays, a few array
passes where a search would take one per level.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = ["FrontierSearch", "ranges", "reached", "is_weakly_connected"]


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges ``[start, start + count)``, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


class FrontierSearch:
    """Breadth-first searches from up to ``capacity`` sources at once.

    A search is a sequence of levels.  :meth:`start` opens level 0 —
    the sources themselves — and each :meth:`expand` returns the next
    level: every ``(owner, vertex)`` pair first reached from the
    frontier it is given, once each.  ``owner`` is the source's
    position in the :meth:`start` call.  Every reached pair gets an
    *entry* id, in the order the pairs were reached (the sources are
    entries ``0 .. k-1``), so a caller can keep each vertex's parent
    entry and turn the levels into one BFS tree per source.  A caller
    stops growing a source by leaving its pairs out of the frontier
    it passes on.

    Reached pairs are marked in one flat ``capacity x V`` scratch
    array that every search of this object shares; :meth:`reset`
    clears only the entries the last search wrote.
    """

    def __init__(
        self, indptr: np.ndarray, heads: np.ndarray, capacity: int
    ) -> None:
        self._indptr = indptr
        self._heads = heads
        self._n = len(indptr) - 1
        self._entry = np.full(capacity * self._n, -1, dtype=np.int32)
        self._touched: List[np.ndarray] = []
        self._count = 0

    def start(
        self, sources: Sequence[int] | np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Open a search from ``sources``; returns level 0 as
        ``(owner, vertex)``."""
        vertex = np.asarray(sources, dtype=np.int64)
        owner = np.arange(vertex.size, dtype=np.int64)
        self._mark(owner * self._n + vertex)
        return owner, vertex

    def expand(
        self, owner: np.ndarray, vertex: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The level after the frontier ``(owner, vertex)``.

        Returns ``(owner, vertex, parent, arc)``: each newly reached
        pair, the entry id of the frontier vertex it was first reached
        from and the CSR arc it came along.  The new pairs come in the
        order of the frontier pairs that reached them, so a frontier
        that lists its owners in ascending order gives a level that
        does too, and a source's parents depend only on the order of
        its own frontier pairs, not on the other sources'.
        """
        n = self._n
        begin = self._indptr[vertex]
        counts = self._indptr[vertex + 1] - begin
        arc = ranges(begin, counts)
        src = np.repeat(np.arange(vertex.size), counts)
        key = (owner * n)[src] + self._heads[arc]
        # Keep the arcs to unreached pairs, one per pair: of a pair's
        # duplicates, the last to write its slot into the scratch.
        fresh = np.flatnonzero(self._entry[key] < 0)
        key = key[fresh]
        slot = np.arange(key.size, dtype=np.int32)
        self._entry[key] = slot
        first = self._entry[key] == slot
        key, fresh = key[first], fresh[first]
        src, arc = src[fresh], arc[fresh]
        parent = self._entry[(owner * n + vertex)[src]]
        self._mark(key)
        return owner[src], self._heads[arc], parent, arc

    def entries(self, owner: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """The entry id of each ``(owner, vertex)`` pair in the current
        search, ``-1`` where it was not reached."""
        return self._entry[owner * self._n + vertex]

    def reset(self) -> None:
        """Forget the current search, clearing only what it marked."""
        for key in self._touched:
            self._entry[key] = -1
        self._touched = []
        self._count = 0

    def _mark(self, key: np.ndarray) -> None:
        self._entry[key] = np.arange(
            self._count, self._count + key.size, dtype=np.int32
        )
        self._count += key.size
        self._touched.append(key)


def reached(
    indptr: np.ndarray, heads: np.ndarray, start: int
) -> np.ndarray:
    """The vertices reachable from ``start`` along CSR adjacency, as a
    boolean mask."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    search = FrontierSearch(indptr, heads, 1)
    owner, vertex = search.start([start])
    while vertex.size:
        seen[vertex] = True
        owner, vertex, _, _ = search.expand(owner, vertex)
    return seen


def is_weakly_connected(csr: CSRGraph) -> bool:
    """Whether the compiled topology is weakly connected: every vertex
    reaches every other when arcs are read both ways (no vertices
    counts as connected).  Computed once per compiled structure and
    kept in its topology memo."""
    return csr.topology_memo("weakly_connected", _weakly_connected)


def _weakly_connected(unit: CSRGraph) -> bool:
    """Union-find over the edge-endpoint arrays, whatever the arcs'
    directions: every tree root hooks under the smallest root it
    shares an edge with, then every vertex jumps to its tree's root,
    until no edge joins two trees.  Each round with such an edge hooks
    at least one root, and a parent is never larger than its child, so
    the rounds end, with one tree per component."""
    n = unit.n
    if n == 0:
        return True
    edge_u, edge_v = unit.edge_endpoints
    root = np.arange(n)
    while True:
        root_u, root_v = root[edge_u], root[edge_v]
        cross = root_u != root_v
        if not cross.any():
            return bool((root == root[0]).all())
        root_u, root_v = root_u[cross], root_v[cross]
        np.minimum.at(
            root,
            np.maximum(root_u, root_v),
            np.minimum(root_u, root_v),
        )
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
