"""Index-based graph kernels over :class:`~repro.engine.csr.CSRGraph`.

These are the compute primitives behind the ``"numpy"`` backend:

* :func:`sssp_dijkstra` — single-source Dijkstra over the CSR arrays
  with an integer binary heap; bit-identical distances to the
  dict-based reference (both compute the minimum over left-associated
  floating-point path sums).
* :func:`multi_source_distances` — the all-pairs workhorse.  When
  scipy is importable it runs ``scipy.sparse.csgraph.dijkstra``
  directly over the CSR arrays (zero-copy); otherwise it falls back to
  :func:`relaxation_distances`, a pull-style vectorized Bellman–Ford —
  one ``minimum.reduceat`` sweep over every arc per round, all sources
  in a block simultaneously.  Either way every entry equals the
  reference Dijkstra value exactly: all three computations are minima
  over left-associated floating-point path sums, and floating-point
  ``min`` is exact, so the numpy backend agrees with the pure-Python
  one bit for bit.
* :func:`min_plus_apsp` — min-plus matrix repeated squaring for small
  dense graphs.  Doubling re-associates path sums, so this kernel is
  exact on integer-valued weights and ulp-close otherwise; it is
  exposed for dense workloads rather than wired into the default
  dispatch.
* :func:`laplace_perturb` — vectorized Laplace perturbation of a
  weight array (the release-side hot loop).
* :func:`path_from_predecessors` — predecessor-array path
  reconstruction.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import (
    DisconnectedGraphError,
    EngineError,
    GraphError,
    WeightError,
)
from ..rng import Rng
from .csr import CSRGraph

__all__ = [
    "sssp_dijkstra",
    "multi_source_distances",
    "relaxation_distances",
    "bellman_ford_distances",
    "min_plus_apsp",
    "dense_distance_matrix",
    "laplace_perturb",
    "path_from_predecessors",
]

#: Target element count per relaxation block — bounds the (sources x
#: arcs) scratch matrix to a few tens of MB.
_BLOCK_ELEMENTS = 4_000_000

try:  # Optional accelerator: scipy's C Dijkstra over the same arrays.
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_csr_matrix = None
    _scipy_dijkstra = None


def sssp_dijkstra(
    csr: CSRGraph, source: int, target: int | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source Dijkstra over CSR arrays.

    Returns ``(dist, pred)``: ``dist[v]`` is the distance of every
    *settled* vertex (``inf`` otherwise), ``pred[v]`` the predecessor
    index on a shortest path (``-1`` for the source and unreached
    vertices).  With ``target`` given the search stops once the target
    settles.  Raises :class:`~repro.exceptions.WeightError` when a
    negative arc is scanned, mirroring the reference implementation.
    """
    n = csr.n
    if not 0 <= source < n:
        raise EngineError(f"source index {source} out of range [0, {n})")
    # Plain-Python views: list indexing in the hot loop is several
    # times faster than ndarray scalar indexing.
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    weights = csr.weights.tolist()
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    settled = bytearray(n)
    tentative = [float("inf")] * n
    tentative[source] = 0.0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        dist[v] = d
        if v == target:
            break
        for a in range(indptr[v], indptr[v + 1]):
            w = weights[a]
            if w < 0:
                raise WeightError(
                    f"Dijkstra requires nonnegative weights; edge "
                    f"({csr.vertex_at(v)!r}, {csr.vertex_at(indices[a])!r}) "
                    f"has weight {w}"
                )
            u = indices[a]
            candidate = d + w
            if not settled[u] and candidate < tentative[u]:
                tentative[u] = candidate
                pred[u] = v
                counter += 1
                heapq.heappush(heap, (candidate, counter, u))
    return dist, pred


def multi_source_distances(
    csr: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    allow_negative: bool = False,
    limit: float = np.inf,
) -> np.ndarray:
    """Exact distances from every source index, vectorized.

    Returns a ``(len(sources), n)`` float matrix with ``inf`` for
    unreachable targets.  Dispatches to scipy's C Dijkstra when scipy
    is importable (zero-copy over the CSR arrays) and to
    :func:`relaxation_distances` otherwise; both match the reference
    Dijkstra bit for bit.

    ``limit`` bounds the search: targets farther than it come back
    ``inf``, and every target within it (inclusive) keeps its
    unlimited value bit for bit — a limited Dijkstra settles the same
    vertices in the same order up to the limit.  scipy prunes its
    search there; the relaxation fallback masks the full sweep.

    Without ``allow_negative`` a negative weight raises
    :class:`~repro.exceptions.WeightError` (matching
    ``all_pairs_dijkstra``); with it, the relaxation kernel is used
    and non-convergence after ``n`` rounds raises
    :class:`~repro.exceptions.GraphError` (negative cycle).
    """
    n = csr.n
    src = np.asarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise EngineError(f"source index out of range [0, {n})")
    if not allow_negative and csr.num_arcs and float(csr.weights.min()) < 0:
        raise WeightError(
            "multi-source kernel requires nonnegative weights; pass "
            "allow_negative=True for Bellman-Ford semantics"
        )
    if (
        not allow_negative
        and _scipy_dijkstra is not None
        and src.size
        and csr.num_arcs
    ):
        matrix = _scipy_csr_matrix(
            (csr.weights, csr.indices, csr.indptr), shape=(n, n)
        )
        return _scipy_dijkstra(
            matrix, directed=True, indices=src, limit=limit
        )
    return relaxation_distances(
        csr, src, allow_negative=allow_negative, limit=limit
    )


def relaxation_distances(
    csr: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    allow_negative: bool = False,
    limit: float = np.inf,
) -> np.ndarray:
    """Pure-numpy multi-source distances (the scipy-free fallback).

    Runs pull-style Bellman–Ford rounds — for every vertex with
    incoming arcs, one ``np.minimum.reduceat`` over the gathered tail
    distances — until a round changes nothing.  With nonnegative
    weights the fixpoint matches Dijkstra bit for bit; with
    ``allow_negative``, non-convergence after ``n`` rounds raises
    :class:`~repro.exceptions.GraphError` (negative cycle).  Entries
    above ``limit`` are masked to ``inf`` afterwards, matching the
    scipy path of :func:`multi_source_distances`.
    """
    n = csr.n
    src = np.asarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise EngineError(f"source index out of range [0, {n})")
    dist = np.full((src.size, n), np.inf)
    dist[np.arange(src.size), src] = 0.0
    if csr.num_arcs == 0 or src.size == 0:
        return dist
    in_indptr, in_tails, in_order = csr.incoming()
    in_weights = csr.weights[in_order]
    nz = np.flatnonzero(np.diff(in_indptr) > 0)
    starts = in_indptr[nz]
    block = max(1, _BLOCK_ELEMENTS // max(csr.num_arcs, 1))
    for lo in range(0, src.size, block):
        d = dist[lo : lo + block]
        for _ in range(n + 1):
            candidates = d[:, in_tails] + in_weights
            mins = np.minimum.reduceat(candidates, starts, axis=1)
            improved = mins < d[:, nz]
            if not improved.any():
                break
            d[:, nz] = np.where(improved, mins, d[:, nz])
        else:
            raise GraphError("graph contains a negative cycle")
    dist[dist > limit] = np.inf
    return dist


def bellman_ford_distances(csr: CSRGraph, source: int) -> np.ndarray:  # privlint: ignore[PL1] negative-weight reference kernel exercised by parity tests/benches; in-tree releases dispatch via multi_source_distances
    """Single-source distances permitting negative weights.

    The vectorized counterpart of
    :func:`repro.algorithms.shortest_paths.bellman_ford` (distances
    only; raises on a negative cycle).
    """
    if not csr.directed and csr.num_arcs and float(csr.weights.min()) < 0:
        raise GraphError(
            "negative undirected edge forms a negative cycle"
        )
    return relaxation_distances(csr, [source], allow_negative=True)[0]


def dense_distance_matrix(csr: CSRGraph) -> np.ndarray:  # privlint: ignore[PL1] min-plus seed matrix for the bench-only APSP kernel; exercised by parity tests/benches
    """The one-hop min-plus matrix: ``D[i, j]`` is the arc weight
    (``inf`` if absent), with a zero diagonal."""
    n = csr.n
    dense = np.full((n, n), np.inf)
    np.fill_diagonal(dense, 0.0)
    if csr.num_arcs:
        tails = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(csr.indptr)
        )
        dense[tails, csr.indices] = csr.weights
    return dense


def min_plus_apsp(
    dense: np.ndarray, row_block: int = 32
) -> np.ndarray:
    """All-pairs distances by min-plus repeated squaring.

    ``dense`` is the one-hop matrix from :func:`dense_distance_matrix`.
    ``ceil(log2(n-1))`` squarings suffice; each squaring is computed in
    row blocks to bound the broadcast scratch at ``row_block * n^2``
    floats.  O(n^3 log n) work but fully vectorized — intended for
    small dense graphs (hundreds of vertices).
    """
    d = np.array(dense, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise EngineError(
            f"min-plus kernel needs a square matrix, got {d.shape}"
        )
    n = d.shape[0]
    if n <= 1:
        return d
    squarings = max(int(np.ceil(np.log2(n - 1))), 1) if n > 2 else 1
    result = np.empty_like(d)
    for _ in range(squarings):
        for lo in range(0, n, row_block):
            hi = min(lo + row_block, n)
            result[lo:hi] = np.min(
                d[lo:hi, :, None] + d[None, :, :], axis=1
            )
        if np.array_equal(result, d):
            break
        d, result = result, d
    return d


def laplace_perturb(
    weights: np.ndarray,
    scale: float,
    rng: Rng,
    clamp_at_zero: bool = False,
) -> np.ndarray:
    """Add i.i.d. ``Lap(scale)`` noise to a weight array in one
    vectorized draw, optionally clamping at zero (post-processing; see
    :mod:`repro.core.synthetic_graph` for why clamping preserves the
    error bound)."""
    values = np.asarray(weights, dtype=float)
    noisy = values + rng.laplace_vector(scale, values.size).reshape(
        values.shape
    )
    if clamp_at_zero:
        noisy = noisy.clip(min=0.0)
    return noisy


def path_from_predecessors(
    pred: np.ndarray, source: int, target: int
) -> List[int]:
    """Rebuild the index path from a :func:`sssp_dijkstra` predecessor
    array."""
    path = [target]
    while path[-1] != source:
        p = int(pred[path[-1]])
        if p < 0:
            raise DisconnectedGraphError(
                f"no path from index {source} to index {target}"
            )
        path.append(p)
    path.reverse()
    return path
