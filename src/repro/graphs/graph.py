"""A weighted graph with public topology and mutable edge weights.

This is the central substrate of the library.  :class:`WeightedGraph`
stores an undirected (or optionally directed) simple graph together with
a weight function ``w : E -> R``.  In the paper's privacy model
(Definition 2.1) the topology is public and only the weights are
private, so the class exposes the weight function as a detachable
object: :meth:`weights` extracts it, :meth:`with_weights` produces a
copy of the same public topology carrying different private weights.

Vertices may be any hashable value (ints, strings, ``(row, col)``
tuples for grids).  Edges of an undirected graph are identified by an
unordered pair; the canonical orientation is the one used at insertion
time, and all lookup methods accept either orientation.

A graph is its vertex order and its edge dict.  The per-vertex
adjacency dicts that neighbour walks read are derived from those two:
a graph built edge by edge keeps them up to date as it goes, and a
derived graph (:meth:`WeightedGraph.with_weights`, ``copy``,
``subgraph``, ``edge_subgraph``) builds them on its first walk or
mutation, so re-weighting a topology is one pass over its edges.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

import numpy as np

from ..exceptions import (
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
    WeightError,
)

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Vertex", "Edge", "WeightedGraph"]


class WeightedGraph:
    """A simple weighted graph.

    Derived graphs -- :meth:`with_weights`, :meth:`copy`,
    :meth:`subgraph` and :meth:`edge_subgraph` -- keep only their
    vertex order and edge dict.  A re-weighted clone or a copy shares
    its parent's vertex order (a copy of it, if the parent has built
    adjacency and so may still add vertices).  Each builds its
    adjacency dicts the first time a method walks neighbours
    (:meth:`neighbors`, :meth:`adjacent`, :meth:`predecessors`,
    :meth:`degree`) or mutates it, in the order an edge-by-edge build
    would give them.  Methods that need only vertices or edges never
    build them.

    A graph also keeps what :mod:`repro.engine.csr` compiled from it:
    the compiled topology, which a re-weighted clone and a copy share,
    and the compiled weights, which a copy shares.  A weight change
    drops the compiled weights and a topology change both.

    Parameters
    ----------
    directed:
        If ``True``, edges are ordered pairs.  The distance algorithms of
        Section 4 of the paper are stated for undirected graphs; the
        shortest-path results of Section 5 also apply to directed graphs,
        and this class supports both.
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = bool(directed)
        # Adjacency: vertex -> neighbor -> weight.  For directed graphs
        # ``_adj`` holds successors and ``_pred`` holds predecessors; for
        # undirected graphs ``_pred`` aliases ``_adj``.  A derived graph
        # has neither until _build_adjacency runs (see __getattr__).
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._pred: Dict[Vertex, Dict[Vertex, float]] = (
            {} if directed else self._adj
        )
        # Vertex order: its keys are the vertices, in insertion order.
        # Once adjacency exists it is ``_adj`` itself, so add_vertex
        # extends both.  Before that it is a dict no graph mutates,
        # which graphs of the same topology share (_shared_vertices).
        self._vertices: Dict[Vertex, object] = self._adj
        # Canonical edge orientations, in insertion order.
        self._edges: Dict[Edge, float] = {}
        # What repro.engine.csr (and only it) compiled from this graph:
        # the topology's structure and the CSRGraph of these weights.
        self._structure: object = None
        self._compiled: object = None

    def __getattr__(self, name: str):
        # Reached only when ordinary lookup fails, which for the
        # adjacency means a derived graph that has not built it yet:
        # every walk and mutation reads ``_adj`` or ``_pred`` first.
        if name in ("_adj", "_pred"):
            self._build_adjacency()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _build_adjacency(self) -> None:
        """Build ``_adj`` and ``_pred`` from the vertex order and the
        edge dict, as :meth:`add_vertex` and :meth:`add_edge` would
        have built them: each vertex's neighbours in the order of its
        edges in the edge dict.  The new ``_adj`` becomes this graph's
        own vertex order."""
        adj: Dict[Vertex, Dict[Vertex, float]] = {
            v: {} for v in self._vertices
        }
        pred = {v: {} for v in adj} if self._directed else adj
        for (u, v), weight in self._edges.items():
            adj[u][v] = weight
            pred[v][u] = weight
        self._adj, self._pred, self._vertices = adj, pred, adj

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex] | Tuple[Vertex, Vertex, float]],
        directed: bool = False,
        default_weight: float = 1.0,
    ) -> "WeightedGraph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)``."""
        graph = cls(directed=directed)
        for item in edges:
            if len(item) == 2:
                u, v = item  # type: ignore[misc]
                weight = default_weight
            elif len(item) == 3:
                u, v, weight = item  # type: ignore[misc]
            else:
                raise GraphError(f"edge tuple must have 2 or 3 items, got {item!r}")
            graph.add_edge(u, v, float(weight))
        return graph

    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        if v not in self._adj:
            self._adj[v] = {}
            if self._directed:
                self._pred[v] = {}
            self._structure = self._compiled = None

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> Edge:
        """Add an edge with the given weight and return its canonical key.

        Adding an edge that already exists overwrites its weight.
        Self-loops are rejected: they never appear on a shortest path,
        spanning tree or matching, and permitting them would complicate
        the sensitivity accounting for no benefit.
        """
        if u == v:
            raise GraphError(f"self-loops are not supported (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        existing = self.edge_key(u, v, missing_ok=True)
        key = existing if existing is not None else (u, v)
        weight = float(weight)
        if existing is None:
            self._structure = None
        self._compiled = None
        self._edges[key] = weight
        # ``_pred`` aliases ``_adj`` on an undirected graph, so this is
        # the reverse entry there.
        self._adj[u][v] = weight
        self._pred[v][u] = weight
        return key

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge between ``u`` and ``v``."""
        key = self.edge_key(u, v)
        # Adjacency is built, if it is not yet, before the edge goes.
        adj, pred = self._adj, self._pred
        del self._edges[key]
        del adj[u][v]
        del pred[v][u]
        self._structure = self._compiled = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def num_vertices(self) -> int:
        """``|V|`` — the paper's ``V``."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """``|E|`` — the paper's ``E``."""
        return len(self._edges)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices in insertion order."""
        return iter(self._vertices)

    def vertex_list(self) -> list[Vertex]:
        """Vertices as a list, in insertion order."""
        return list(self._vertices)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over ``(u, v, weight)`` in canonical orientation."""
        for (u, v), w in self._edges.items():
            yield u, v, w

    def edge_list(self) -> list[Edge]:
        """Canonical edge keys as a list, in insertion order."""
        return list(self._edges)

    def has_vertex(self, v: Vertex) -> bool:
        """Whether ``v`` is a vertex of the graph."""
        return v in self._vertices

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether an edge joins ``u`` and ``v`` (either orientation if
        undirected)."""
        edges = self._edges
        return (u, v) in edges or (not self._directed and (v, u) in edges)

    def edge_key(
        self, u: Vertex, v: Vertex, missing_ok: bool = False
    ) -> Edge | None:
        """Return the canonical key of the edge between ``u`` and ``v``.

        For undirected graphs the canonical key is whichever orientation
        was used at insertion.  Raises
        :class:`~repro.exceptions.EdgeNotFoundError` unless
        ``missing_ok`` is set.
        """
        if (u, v) in self._edges:
            return (u, v)
        if not self._directed and (v, u) in self._edges:
            return (v, u)
        if missing_ok:
            return None
        raise EdgeNotFoundError((u, v))

    def neighbors(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate ``(neighbor, weight)`` pairs.

        For directed graphs this iterates successors.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return iter(self._adj[v].items())

    def adjacent(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate the neighbours of ``v`` in :meth:`neighbors` order,
        without their weights: the topology-only view, which reads no
        private data.

        For directed graphs this iterates successors.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return iter(self._adj[v])

    def predecessors(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate ``(predecessor, weight)`` pairs (directed graphs)."""
        if v not in self._pred:
            raise VertexNotFoundError(v)
        return iter(self._pred[v].items())

    def degree(self, v: Vertex) -> int:
        """Number of incident edges (out-degree for directed graphs)."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return len(self._adj[v])

    # ------------------------------------------------------------------
    # The weight function w : E -> R (the private data)
    # ------------------------------------------------------------------

    def weight(self, u: Vertex, v: Vertex) -> float:
        """The weight of the edge between ``u`` and ``v``."""
        key = self.edge_key(u, v)
        assert key is not None
        return self._edges[key]

    def set_weight(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Overwrite the weight of an existing edge."""
        key = self.edge_key(u, v)
        assert key is not None
        adj, pred = self._adj, self._pred
        weight = float(weight)
        self._compiled = None
        self._edges[key] = weight
        a, b = key
        adj[a][b] = weight
        pred[b][a] = weight

    def weights(self) -> Dict[Edge, float]:
        """The weight function as a dict keyed by canonical edge."""
        return dict(self._edges)

    def weight_vector(self, order: Iterable[Edge] | None = None) -> np.ndarray:
        """The weight function as a vector.

        The paper's histogram formulation (Section 1.3) views ``w`` as a
        point in ``R^{|E|}``; this method realizes that view.  The
        default order is canonical insertion order
        (:meth:`edge_list`).
        """
        if order is None:
            return np.fromiter(
                self._edges.values(), dtype=float, count=len(self._edges)
            )
        values = []
        for key in order:
            canonical = self.edge_key(*key)
            assert canonical is not None
            values.append(self._edges[canonical])
        return np.asarray(values, dtype=float)

    def with_weights(
        self, new_weights: Mapping[Edge, float] | np.ndarray | Iterable[float]
    ) -> "WeightedGraph":
        """Return a copy of this topology carrying different weights.

        ``new_weights`` may be a mapping from edges (either orientation)
        to weights, or a sequence aligned with :meth:`edge_list`.  This
        is how mechanisms release synthetic graphs: same public
        topology, freshly noised private weights.  The clone is one
        pass over the edges: it keeps a new edge dict and shares this
        graph's vertex order and compiled topology, and builds its
        adjacency dicts on its first walk or mutation, in the order
        :meth:`copy` followed by :meth:`set_weight` on every changed
        edge gives them.
        """
        edges = self._edges
        if isinstance(new_weights, Mapping):
            new_edges = dict(edges)
            for (u, v), weight in new_weights.items():
                key = (u, v)
                if key not in edges:
                    key = (v, u)
                    if self._directed or key not in edges:
                        raise EdgeNotFoundError((u, v))
                new_edges[key] = float(weight)
        else:
            if isinstance(new_weights, np.ndarray):
                if new_weights.ndim != 1:
                    raise WeightError(
                        f"expected {len(edges)} weights, got an array "
                        f"of shape {new_weights.shape}"
                    )
                values = new_weights.tolist()
                # A float64 array lists its values as floats already.
                if new_weights.dtype != np.float64:
                    values = list(map(float, values))
            else:
                values = list(map(float, new_weights))
            if len(values) != len(edges):
                raise WeightError(
                    f"expected {len(edges)} weights, got {len(values)}"
                )
            new_edges = dict(zip(edges, values))
        clone = self._assembled(self._shared_vertices(), new_edges)
        clone._structure = self._structure
        return clone

    def total_weight(self) -> float:
        """``||w||_1`` — the sum of all edge weights."""
        return float(sum(self._edges.values()))

    def check_nonnegative(self) -> None:
        """Raise :class:`~repro.exceptions.WeightError` if any weight is
        negative or not finite (Definition 2.1 requires
        ``w : E -> R+``), naming the first such edge."""
        weights = self.weight_vector()
        bad = np.flatnonzero(~np.isfinite(weights) | (weights < 0))
        if bad.size:
            u, v = self.edge_list()[bad[0]]
            raise WeightError(
                f"edge ({u!r}, {v!r}) has weight {weights[bad[0]]}; "
                f"weights must be finite and non-negative"
            )

    def check_bounded(self, bound: float) -> None:
        """Raise :class:`~repro.exceptions.WeightError` unless all
        weights lie in ``[0, bound]`` (Section 4.2's precondition)."""
        self.check_nonnegative()
        for (u, v), weight in self._edges.items():
            if weight > bound:
                raise WeightError(
                    f"edge ({u!r}, {v!r}) has weight {weight} > bound {bound}"
                )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "WeightedGraph":
        """An independent deep copy, sharing this graph's compiled
        form (which no mutation of either graph changes)."""
        clone = self._assembled(self._shared_vertices(), dict(self._edges))
        clone._structure, clone._compiled = self._structure, self._compiled
        return clone

    def _shared_vertices(self) -> Dict[Vertex, object]:
        """This graph's vertex order, for a graph of the same topology
        to share: the dict itself until this graph builds adjacency
        (no graph mutates it before then), a copy once it has."""
        if "_adj" in self.__dict__:
            return dict.fromkeys(self._vertices)
        return self._vertices

    def _assembled(
        self, vertices: Dict[Vertex, object], edges: Dict[Edge, float]
    ) -> "WeightedGraph":
        """A graph of this kind on ``vertices`` (keys in order, a dict
        no graph mutates) and ``edges`` (canonical keys of this graph
        with both endpoints among ``vertices``): what :meth:`add_vertex`
        and :meth:`add_edge` build from the vertices in order, then the
        edges in order, uncompiled.  It builds its adjacency when first
        walked or mutated."""
        clone = WeightedGraph.__new__(WeightedGraph)
        clone._directed = self._directed
        clone._vertices, clone._edges = vertices, edges
        clone._structure = clone._compiled = None
        return clone

    def subgraph(self, keep: Iterable[Vertex]) -> "WeightedGraph":
        """The induced subgraph on the given vertex set, with this
        graph's vertex and edge insertion orders."""
        keep_set = set(keep)
        missing = keep_set.difference(self._vertices)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        edges = {
            key: weight
            for key, weight in self._edges.items()
            if key[0] in keep_set and key[1] in keep_set
        }
        return self._assembled(
            dict.fromkeys(filter(keep_set.__contains__, self._vertices)),
            edges,
        )

    def edge_subgraph(
        self, vertices: Iterable[Vertex], edges: Iterable[int]
    ) -> "WeightedGraph":
        """The subgraph on ``vertices`` with the edges at positions
        ``edges`` of :meth:`edge_list`, each inserted in the order
        given.  With ``vertices`` in this graph's order and ``edges``
        the ascending positions of every edge among them, it is
        :meth:`subgraph` of ``vertices``, built without a pass over
        the other edges.  Refuses a vertex outside this graph and an
        edge with an endpoint outside ``vertices``."""
        keep = dict.fromkeys(vertices)
        missing = set(keep).difference(self._vertices)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        keys, values = self.edge_list(), list(self._edges.values())
        kept = {keys[e]: values[e] for e in edges}
        for key in kept:
            for end in key:
                if end not in keep:
                    raise GraphError(
                        f"edge_subgraph keeps an edge at {end!r}, "
                        f"which is not among its vertices"
                    )
        return self._assembled(keep, kept)

    def path_weight(self, path: Iterable[Vertex]) -> float:
        """The weight ``w(P)`` of a path given as a vertex sequence.

        Raises if consecutive vertices are not adjacent, so a released
        path can be validated against the public topology.
        """
        vertices = list(path)
        total = 0.0
        for u, v in zip(vertices, vertices[1:]):
            total += self.weight(u, v)
        return total

    def is_path(self, path: Iterable[Vertex]) -> bool:
        """Whether the vertex sequence is a walk in the graph."""
        vertices = list(path)
        if not vertices:
            return False
        if any(v not in self._vertices for v in vertices):
            return False
        return all(
            self.has_edge(u, v) for u, v in zip(vertices, vertices[1:])
        )

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"WeightedGraph({kind}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
