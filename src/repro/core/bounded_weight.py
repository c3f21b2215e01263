"""Algorithm 2: all-pairs distances in bounded-weight graphs
(Section 4.2, Theorems 4.3, 4.5, 4.6, 4.7).

With weights in ``[0, M]``, fix a k-covering ``Z`` (Definition 4.1):
every vertex ``v`` has a covering vertex ``z(v)`` within ``k`` hops, so
``|d(u, v) - d(z(u), z(v))| <= 2kM``.  Release noisy distances only
between the ``|Z|^2`` covering pairs and answer every query
``(u, v)`` with the released ``a_{z(u), z(v)}``.

Two noise regimes:

* **approx** (Theorem 4.5): each pair gets ``Lap(1/eps_q)`` noise where
  ``eps_q`` composes to ``(eps, delta)`` over the ``|Z|^2`` queries via
  Lemma 3.4 — the paper's ``Lap(Z/eps')`` with
  ``eps' = O(eps / sqrt(ln 1/delta))``.
* **pure** (Theorem 4.6): the whole distance vector has L1 sensitivity
  ``|Z|^2``, so ``Lap(Z^2/eps)`` per entry is eps-DP.

Theorem 4.3 picks ``k`` to balance the ``2kM`` covering error against
the noise: ``k = sqrt(V/(M eps))`` (approx) or ``(V^2/(M eps))^{1/3}``
(pure), yielding ``O~(sqrt(V M / eps))`` and ``O((VM)^{2/3}/eps^{1/3})``
error.  Theorem 4.7 instantiates the square grid with its explicit
``2 V^{1/3}``-covering of ``V^{1/3}`` vertices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algorithms.covering import (
    grid_covering,
    is_k_covering,
    meir_moon_k_covering,
    nearest_in_set,
)
from ..dp.bounds import (
    bounded_weight_optimal_k_approx,
    bounded_weight_optimal_k_pure,
)
from ..dp.composition import composed_noise_scale
from ..dp.params import PrivacyParams
from ..engine.csr import CSRGraph
from ..engine.frontier import is_weakly_connected
from ..engine.kernels import kernel_span, multi_source_distances
from ..exceptions import (
    DisconnectedGraphError,
    GraphError,
    PrivacyError,
    VertexNotFoundError,
)
from ..graphs.graph import Vertex, WeightedGraph
from ..rng import Rng

__all__ = [
    "BoundedWeightRelease",
    "bounded_weight_radius",
    "release_bounded_weight",
    "release_grid_bounded_weight",
]


def bounded_weight_radius(
    num_vertices: int, weight_bound: float, eps: float, delta: float = 0.0
) -> int:
    """Theorem 4.3's covering radius for the budget's regime
    (:func:`~repro.dp.bounds.bounded_weight_optimal_k_approx` when
    ``delta > 0``, else the pure optimum), clamped to Lemma 4.4's
    hypothesis ``V >= k + 1``, so a lone vertex covers itself at
    radius 0."""
    if delta > 0:
        k = bounded_weight_optimal_k_approx(num_vertices, weight_bound, eps)
    else:
        k = bounded_weight_optimal_k_pure(num_vertices, weight_bound, eps)
    return min(k, num_vertices - 1)


class _CoveringRelease:
    """Algorithm 2's public half, shared by every release that answers
    through a k-covering: the weight-bound and connectivity checks,
    the radius ``k``, the covering ``Z`` and the assignment ``z(v)``.

    Everything here depends only on the public topology and the
    declared bound, so it spends nothing.  A subclass releases the
    covering pairs' distances; it names its kind in refusals
    (``_what``) and sets ``default_radius(V, M, eps, delta)``, the
    radius it picks when ``k`` is not given.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        weight_bound: float,
        eps: float,
        delta: float,
        k: int | None,
        covering: List[Vertex] | None,
    ) -> None:
        if weight_bound <= 0:
            raise PrivacyError(
                f"weight bound M must be positive, got {weight_bound}"
            )
        graph.check_bounded(weight_bound)
        self._csr = CSRGraph.from_graph(graph)
        if not is_weakly_connected(self._csr):
            raise DisconnectedGraphError(
                f"{self._what} release requires a connected graph"
            )
        self._graph = graph
        self._weight_bound = float(weight_bound)
        self._params = PrivacyParams(eps, delta)
        if k is None:
            k = self.default_radius(
                graph.num_vertices, weight_bound, eps, delta
            )
        if k < 0:
            raise GraphError(f"k must be nonnegative, got {k}")
        self._k = k

        if covering is None:
            covering = meir_moon_k_covering(graph, k)
        else:
            covering = list(covering)
            if not is_k_covering(graph, covering, k):
                raise GraphError(
                    f"provided vertex set is not a {k}-covering"
                )
        self._covering = covering

        # Assignment z(v): nearest covering vertex by hops (step 2).
        self._assignment: Dict[Vertex, Vertex] = {
            vert: origin
            for vert, (origin, _) in nearest_in_set(graph, covering).items()
        }

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee of the release."""
        return self._params

    @property
    def graph(self) -> WeightedGraph:
        """The (public-topology) graph the release was computed on."""
        return self._graph

    @property
    def weight_bound(self) -> float:
        """The public bound ``M`` on edge weights."""
        return self._weight_bound

    @property
    def k(self) -> int:
        """The covering radius in hops (detour error ``<= 2kM``)."""
        return self._k

    @property
    def covering(self) -> List[Vertex]:
        """The covering set ``Z``."""
        return list(self._covering)

    @property
    def covering_size(self) -> int:
        """``|Z|`` — Lemma 4.4 guarantees ``<= V/(k+1)`` for the default
        construction."""
        return len(self._covering)

    def assigned_covering_vertex(self, v: Vertex) -> Vertex:
        """``z(v)``: the covering vertex assigned to ``v`` (step 2)."""
        if v not in self._assignment:
            raise VertexNotFoundError(v)
        return self._assignment[v]


class BoundedWeightRelease(_CoveringRelease):
    """The Algorithm 2 release object.

    Parameters
    ----------
    graph:
        Connected graph with weights in ``[0, weight_bound]``.
    weight_bound:
        The bound ``M`` on edge weights.
    eps, delta:
        The privacy budget.  ``delta = 0`` selects the pure regime of
        Theorem 4.6; ``delta > 0`` the approx regime of Theorem 4.5.
    k:
        The covering radius.  Defaults to the Theorem 4.3 optimum for
        the selected regime (:func:`bounded_weight_radius`).
    covering:
        An explicit k-covering ``Z`` to use (validated).  Defaults to
        the Lemma 4.4 construction.
    """

    _what = "bounded-weight"
    default_radius = staticmethod(bounded_weight_radius)

    def __init__(
        self,
        graph: WeightedGraph,
        weight_bound: float,
        eps: float,
        rng: Rng,
        delta: float = 0.0,
        k: int | None = None,
        covering: List[Vertex] | None = None,
    ) -> None:
        super().__init__(graph, weight_bound, eps, delta, k, covering)
        covering = self._covering
        z = len(covering)

        # Noise scale per released covering-pair distance (step 1):
        # the paper's Z^2 queries, counted unordered.
        self._scale = composed_noise_scale(z * (z - 1) // 2, eps, delta)

        sites = self._csr.indices_of(covering)
        with kernel_span("engine.all_pairs", sources=z):
            exact = multi_source_distances(self._csr, sites)
        exact = exact[:, sites].tolist()
        self._released: Dict[Tuple[Vertex, Vertex], float] = {
            (y, covering[j]): exact[i][j] + rng.laplace(self._scale)
            for i, y in enumerate(covering)
            for j in range(i + 1, z)
        }

    @property
    def noise_scale(self) -> float:
        """The Laplace scale added to each covering-pair distance."""
        return self._scale

    def covering_distance(self, y: Vertex, z: Vertex) -> float:
        """The released noisy distance ``a_{y,z}`` between two covering
        vertices."""
        if y == z:
            return 0.0
        if (y, z) in self._released:
            return self._released[(y, z)]
        if (z, y) in self._released:
            return self._released[(z, y)]
        raise GraphError(
            f"({y!r}, {z!r}) is not a covering pair of this release"
        )

    def distance(self, u: Vertex, v: Vertex) -> float:
        """The approximate distance ``a_{z(u), z(v)}`` (step 3).

        Error sources, per Theorem 4.5/4.6: at most ``2kM`` from the
        detour through covering vertices plus the Laplace noise on the
        released pair.
        """
        zu = self.assigned_covering_vertex(u)
        zv = self.assigned_covering_vertex(v)
        return self.covering_distance(zu, zv)

    def all_released(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """All released covering-pair distances."""
        return dict(self._released)


def release_bounded_weight(
    graph: WeightedGraph,
    weight_bound: float,
    eps: float,
    rng: Rng,
    delta: float = 0.0,
    k: int | None = None,
    covering: List[Vertex] | None = None,
) -> BoundedWeightRelease:
    """Run Algorithm 2 (Theorems 4.3/4.5/4.6) on a bounded-weight
    graph."""
    return BoundedWeightRelease(
        graph,
        weight_bound,
        eps,
        rng,
        delta=delta,
        k=k,
        covering=covering,
    )


def release_grid_bounded_weight(
    graph: WeightedGraph,
    rows: int,
    cols: int,
    weight_bound: float,
    eps: float,
    rng: Rng,
    delta: float = 0.0,
) -> BoundedWeightRelease:
    """Theorem 4.7: Algorithm 2 on the ``rows x cols`` grid with the
    explicit lattice covering of spacing ``V^(1/3)``.

    The covering has size about ``V^(1/3)`` and radius ``2 V^(1/3)``,
    giving per-distance error
    ``V^(1/3) * O(M + (1/eps) log(V/gamma) sqrt(log 1/delta))``.
    """
    v = rows * cols
    if graph.num_vertices != v:
        raise GraphError(
            f"graph has {graph.num_vertices} vertices, expected "
            f"{rows} x {cols} = {v}"
        )
    spacing = max(1, round(v ** (1.0 / 3.0)))
    covering = grid_covering(rows, cols, spacing)
    k = 2 * spacing
    if not is_k_covering(graph, covering, k):
        raise GraphError(
            "lattice covering is not valid for this graph; pass the grid "
            "produced by repro.graphs.generators.grid_graph"
        )
    return BoundedWeightRelease(
        graph,
        weight_bound,
        eps,
        rng,
        delta=delta,
        k=k,
        covering=covering,
    )
