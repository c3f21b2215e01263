"""Compiled CSR form of a :class:`~repro.graphs.graph.WeightedGraph`.

Every exact-recomputation hot path in the library (Algorithm 3's
post-processing, the Section-4 baselines, Algorithm 2's covering
distances, the serving synopses) bottoms out in shortest-path sweeps
over the same public topology.  :class:`CSRGraph` compiles that
topology once into frozen integer-indexed numpy arrays — the standard
compressed-sparse-row layout of ``indptr`` / ``indices`` / ``weights``
— so the kernels in :mod:`repro.engine.kernels` can run over flat
arrays instead of dict-of-dicts adjacency.

Undirected edges are stored as two directed arcs.  ``arc_edge`` maps
every arc back to the index of its canonical edge (the
:meth:`~repro.graphs.graph.WeightedGraph.edge_list` order), which is
what makes re-weighting cheap: a new weight function is one fancy-index
gather, no topology work (:meth:`CSRGraph.with_weights`).  The arcs
are laid out from two edge-endpoint index arrays, which the structure
keeps (:attr:`CSRGraph.edge_endpoints`): whatever else is derived from
the topology edge by edge — the shard router's cut, boundary and edge
classes — is array code over them.

Compilation is kept on the source graph in two slots that only this
module reads or fills: the structure, compiled once per topology, and
the :class:`CSRGraph` of the graph's current weights.  The graph
drops the second on a weight change and both on a topology change, so
a weights-only change reuses the frozen structure and only regathers
the weight array.  That cheap path covers both in-place
``set_weight`` mutation and the per-epoch refresh pattern of
:mod:`repro.serving`: ``WeightedGraph.with_weights`` passes the
structure on to its re-weighted clones and ``copy`` passes on both,
and a distance service compiles the graph it is handed, copies it and
re-weights its copy on every refresh, whatever graph object the new
weights came in.  Compiling reads only a graph's vertex order, edge
list and weight vector.  A derived graph (``with_weights``, ``copy``,
``subgraph``, ``edge_subgraph``) shares its parent's vertex order, or
keeps its own, and builds its per-vertex adjacency dicts only on its
first walk, so a re-weighting that is only compiled never builds
them.

In Sealfon's model the topology is public, so whatever is computed
from it alone is the same in every epoch.  The structure therefore
also keeps a memo of such values (:meth:`CSRGraph.topology_memo`:
the graph's weak connectivity, and for each hub build its sites'
mutual reachability and its ball pairs with one BFS tree per pair
source), computed over unit weights on first use and shared by every
re-weighting.  The memo lives and dies with the structure; a changed
topology compiles a new structure with an empty memo.  What the
kernels derive from one instance's weights (their nonnegativity and
scipy's matrix over the arrays) is kept on that instance
(:meth:`CSRGraph.weights_memo`), whose weights never change.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Hashable, Sequence, Tuple, TypeVar

import numpy as np

from ..exceptions import EngineError, VertexNotFoundError, WeightError
from ..graphs.graph import Vertex, WeightedGraph

__all__ = ["CSRGraph"]

T = TypeVar("T")


class _CSRStructure:
    """The frozen topology half of a compiled graph.

    Shared (never copied) between all re-weightings of the same
    topology; everything here is independent of the private weights,
    the ``memo`` of topology-only values included
    (:meth:`CSRGraph.topology_memo`).
    """

    __slots__ = (
        "directed",
        "indptr",
        "indices",
        "arc_edge",
        "edge_u",
        "edge_v",
        "vertices",
        "index",
        "memo",
        "_incoming",
    )

    def __init__(
        self,
        directed: bool,
        indptr: np.ndarray,
        indices: np.ndarray,
        arc_edge: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        vertices: Tuple[Vertex, ...],
        index: Dict[Vertex, int],
    ) -> None:
        self.directed = directed
        self.indptr = indptr
        self.indices = indices
        self.arc_edge = arc_edge
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.vertices = vertices
        self.index = index
        self.memo: Dict[Hashable, object] = {}
        self._incoming: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def incoming(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The incoming-arc view ``(in_indptr, in_tails, in_order)``.

        ``in_order`` permutes the arc arrays into by-head order, so the
        vectorized relaxation kernel can gather each arc's weight as
        ``weights[in_order]``.  Computed lazily and cached — it is a
        pure function of the structure.
        """
        if self._incoming is None:
            n = len(self.vertices)
            heads = self.indices
            tails = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.indptr)
            )
            order = np.argsort(heads, kind="stable")
            in_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(heads, minlength=n), out=in_indptr[1:]
            )
            self._incoming = (in_indptr, tails[order], order)
        return self._incoming


def _build_structure(graph: WeightedGraph) -> _CSRStructure:
    """Compile the topology from two edge-endpoint index arrays.

    Edge ``e`` of :meth:`~repro.graphs.graph.WeightedGraph.edge_list`
    runs from vertex ``edge_u[e]`` to ``edge_v[e]``.  It becomes arc
    ``e`` of a directed graph, and arcs ``2e`` (``u -> v``) and
    ``2e + 1`` (``v -> u``) of an undirected one; a stable sort by
    tail then lays the arcs out in CSR order.
    """
    vertices = tuple(graph.vertex_list())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    m = graph.num_edges
    ends = np.fromiter(
        map(index.__getitem__, chain.from_iterable(graph.edge_list())),
        dtype=np.int64,
        count=2 * m,
    ).reshape(m, 2)
    edge_u, edge_v = ends[:, 0].copy(), ends[:, 1].copy()
    if graph.directed:
        tails, heads = edge_u, edge_v
        arc_edge = np.arange(m, dtype=np.int64)
    else:
        tails, heads = ends.ravel(), ends[:, ::-1].ravel()
        arc_edge = np.repeat(np.arange(m, dtype=np.int64), 2)
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    if len(tails):
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    edge_u.setflags(write=False)
    edge_v.setflags(write=False)
    return _CSRStructure(
        graph.directed,
        indptr,
        heads[order],
        arc_edge[order],
        edge_u,
        edge_v,
        vertices,
        index,
    )


class CSRGraph:
    """A frozen, integer-indexed compilation of a weighted graph.

    Vertices are mapped to contiguous indices in insertion order
    (:meth:`index_of` / :meth:`vertex_at`); arc ``a`` runs from the
    vertex owning slot ``a`` of ``indptr`` to ``indices[a]`` with weight
    ``weights[a]``.  Instances are immutable — re-weighting produces a
    new instance sharing the structure arrays.
    """

    __slots__ = ("_structure", "_weights", "_edge_weights", "_memo")

    def __init__(
        self,
        structure: _CSRStructure,
        edge_weights: np.ndarray,
    ) -> None:
        self._structure = structure
        self._edge_weights = edge_weights
        self._weights = edge_weights[structure.arc_edge]
        self._weights.setflags(write=False)
        self._edge_weights.setflags(write=False)
        self._memo: Dict[Hashable, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "CSRGraph":
        """Compile a :class:`~repro.graphs.graph.WeightedGraph`.

        The compiled instance is kept on the graph, which drops it when
        its weights or topology change: an unchanged graph (or a copy
        of it) returns the same object.  Otherwise the graph's weight
        vector is gathered over its kept structure, which only a
        topology change drops and which a re-weighted clone or a copy
        shares, or over a structure compiled now and kept.
        """
        if graph._compiled is None:
            if graph._structure is None:
                graph._structure = _build_structure(graph)
            graph._compiled = cls(graph._structure, graph.weight_vector())
        return graph._compiled  # type: ignore[return-value]

    def with_weights(
        self, edge_weights: np.ndarray | Sequence[float]
    ) -> "CSRGraph":
        """A re-weighted view sharing this instance's structure.

        ``edge_weights`` is aligned with the source graph's
        :meth:`~repro.graphs.graph.WeightedGraph.edge_list` order (one
        value per canonical edge, not per arc) — the same convention as
        :meth:`WeightedGraph.weight_vector`.
        """
        values = np.asarray(edge_weights, dtype=float)
        if values.shape != (self.num_edges,):
            raise WeightError(
                f"expected {self.num_edges} edge weights, got shape "
                f"{values.shape}"
            )
        return CSRGraph(self._structure, values.copy())

    def topology_memo(
        self, key: Hashable, compute: Callable[["CSRGraph"], T]
    ) -> T:
        """``compute(unit)`` for this topology, computed once per
        compiled structure.

        ``unit`` is the unit-weight view of the structure, so the value
        is a function of the public topology alone, never of this
        graph's weights.  It is kept on the structure that every
        re-weighting of the topology shares, so each later epoch,
        tenant or relay over the same structure gets the same object
        back; callers must treat it as read-only.  ``key`` names the
        computation and every input it takes besides the topology.
        """
        memo = self._structure.memo
        if key not in memo:
            memo[key] = compute(self.with_weights(np.ones(self.num_edges)))
        return memo[key]  # type: ignore[return-value]

    def weights_memo(
        self, key: Hashable, compute: Callable[["CSRGraph"], T]
    ) -> T:
        """``compute(self)``, computed once per instance.

        An instance's weights never change, so whatever is derived from
        its arrays holds for its whole life: the kernels keep the
        nonnegativity verdict and scipy's matrix over these arrays
        here, so each sweep over the same instance skips both.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Vertex <-> index mapping
    # ------------------------------------------------------------------

    def index_of(self, v: Vertex) -> int:
        """The contiguous index assigned to a vertex."""
        try:
            return self._structure.index[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def vertex_at(self, i: int) -> Vertex:
        """The vertex owning a contiguous index."""
        vertices = self._structure.vertices
        if not 0 <= i < len(vertices):
            raise EngineError(
                f"vertex index {i} out of range [0, {len(vertices)})"
            )
        return vertices[i]

    def indices_of(self, vs: Sequence[Vertex]) -> np.ndarray:
        """Vectorized :meth:`index_of` over a vertex sequence."""
        return np.asarray([self.index_of(v) for v in vs], dtype=np.int64)

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices, ordered by their contiguous indices."""
        return self._structure.vertices

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------

    @property
    def directed(self) -> bool:
        """Whether the compiled graph was directed."""
        return self._structure.directed

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._structure.vertices)

    @property
    def num_edges(self) -> int:
        """Number of canonical edges (arcs / 2 when undirected)."""
        return len(self._edge_weights)

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs in the CSR arrays."""
        return len(self._structure.indices)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer: arcs of vertex ``i`` occupy
        ``indptr[i]:indptr[i+1]``."""
        return self._structure.indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices: the head vertex of each arc."""
        return self._structure.indices

    @property
    def weights(self) -> np.ndarray:
        """Per-arc weights, aligned with :attr:`indices` (read-only)."""
        return self._weights

    @property
    def edge_weights(self) -> np.ndarray:
        """Per-canonical-edge weights in ``edge_list`` order
        (read-only)."""
        return self._edge_weights

    @property
    def arc_edge(self) -> np.ndarray:
        """For each arc, the index of its canonical edge."""
        return self._structure.arc_edge

    @property
    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, v)``: the vertex indices of every canonical edge's
        endpoints, in ``edge_list`` order and orientation
        (read-only)."""
        structure = self._structure
        return structure.edge_u, structure.edge_v

    def incoming(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incoming-arc view for pull-style relaxation kernels; see
        :meth:`_CSRStructure.incoming`."""
        return self._structure.incoming()

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph({kind}, n={self.n}, arcs={self.num_arcs})"
