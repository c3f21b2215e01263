"""Index-based graph kernels over :class:`~repro.engine.csr.CSRGraph`.

The exact-distance engine behind
:func:`repro.algorithms.shortest_paths.all_pairs_dijkstra` and behind
the releases that read exact distances in bulk (the all-pairs
baselines, Algorithm 2's covering pairs, the hub releases, a pair
workload) and the traffic replay's ground truth:

* :func:`multi_source_distances` — the all-pairs workhorse.  When
  scipy is importable it runs ``scipy.sparse.csgraph.dijkstra``
  directly over the CSR arrays (zero-copy); otherwise it falls back to
  :func:`relaxation_distances`, a pull-style vectorized Bellman–Ford —
  one ``minimum.reduceat`` sweep over every arc per round, all sources
  in a block simultaneously.  Either way every entry equals
  :func:`~repro.algorithms.shortest_paths.dijkstra`'s value exactly:
  all three computations are minima over left-associated
  floating-point path sums, and floating-point ``min`` is exact.
* :func:`pair_distances` — the exact distance of each ``(source,
  target)`` index pair, gathered from blocked sweeps over the distinct
  sources: what a pair workload release
  (:func:`~repro.serving.batching.fresh_batch`,
  :func:`~repro.serving.synopsis.build_single_pair_synopsis`) noises
  and what the traffic replay measures its answers against.
* :func:`sweep_block_rows` — how many sources one sweep takes where a
  caller reads only a few entries of each row (the hub build,
  :func:`pair_distances`): as many ``V``-length float64 rows as fit in
  :data:`SWEEP_BLOCK_BYTES`, never fewer than one.  The budget is
  1 MiB, half of a 2 MiB per-core L2, so the block a sweep fills is
  still cached when its few entries are gathered, with room left for
  scipy's per-source scratch.  On the 64x64 grid's ball-pair sweeps,
  2 MiB measured the same and 256-row blocks (8.4 MB each) took about
  10% more CPU time.
* :func:`kernel_span` — the profiler-gated tracer span every kernel
  call site opens (``engine.sssp``, ``engine.all_pairs``,
  ``engine.pairs``, ``engine.hub_rows``, ...).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

import numpy as np

from ..exceptions import EngineError, WeightError
from ..telemetry import get_telemetry
from .csr import CSRGraph

__all__ = [
    "multi_source_distances",
    "pair_distances",
    "relaxation_distances",
    "sweep_block_rows",
    "kernel_span",
]

#: Target element count per relaxation block — bounds the (sources x
#: arcs) scratch matrix to a few tens of MB.
_BLOCK_ELEMENTS = 4_000_000

#: Bytes of float64 distances one blocked sweep returns at most
#: (:func:`sweep_block_rows`): 32 rows at ``V = 4096``.
SWEEP_BLOCK_BYTES = 1 << 20

try:  # Optional accelerator: scipy's C Dijkstra over the same arrays.
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - exercised on scipy-free installs
    _scipy_csr_matrix = None
    _scipy_dijkstra = None


def kernel_span(name: str, **attributes: object):
    """A tracer span over one kernel call — but only when the current
    bundle carries a live phase profiler.  Kernel calls are the exact
    sweeps' innermost hot path, so they are never traced by default;
    with a profiler attached they become ``engine.*`` phases in the
    attribution table."""
    telemetry = get_telemetry()
    if telemetry.profiler.enabled:
        return telemetry.span(name, **attributes)
    return nullcontext()


def sweep_block_rows(csr: CSRGraph) -> int:
    """Sources per blocked sweep over ``csr``: as many ``csr.n``-length
    float64 rows as fit in :data:`SWEEP_BLOCK_BYTES`, at least one."""
    return max(1, SWEEP_BLOCK_BYTES // (8 * max(csr.n, 1)))


def multi_source_distances(
    csr: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    limit: float = np.inf,
) -> np.ndarray:
    """Exact distances from every source index, vectorized.

    Returns a ``(len(sources), n)`` float matrix with ``inf`` for
    unreachable targets.  Dispatches to scipy's C Dijkstra when scipy
    is importable (zero-copy over the CSR arrays) and to
    :func:`relaxation_distances` otherwise; both match
    :func:`~repro.algorithms.shortest_paths.dijkstra` bit for bit.

    ``limit`` bounds the search: targets farther than it come back
    ``inf``, and every target within it (inclusive) keeps its
    unlimited value bit for bit — a limited Dijkstra settles the same
    vertices in the same order up to the limit.  scipy prunes its
    search there; the relaxation fallback masks the full sweep.

    A negative weight raises :class:`~repro.exceptions.WeightError`
    (matching ``all_pairs_dijkstra``).  The weight check and scipy's
    matrix over the arrays are made once per ``csr`` instance
    (:meth:`~repro.engine.csr.CSRGraph.weights_memo`), not per call.
    """
    n = csr.n
    src = np.asarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise EngineError(f"source index out of range [0, {n})")
    if not csr.weights_memo(
        "nonnegative", lambda c: not (c.num_arcs and c.weights.min() < 0)
    ):
        raise WeightError("multi-source kernel requires nonnegative weights")
    if _scipy_dijkstra is not None and src.size and csr.num_arcs:
        matrix = csr.weights_memo(
            "scipy",
            lambda c: _scipy_csr_matrix(
                (c.weights, c.indices, c.indptr), shape=(n, n)
            ),
        )
        return _scipy_dijkstra(
            matrix, directed=True, indices=src, limit=limit
        )
    return relaxation_distances(csr, src, limit=limit)


def pair_distances(
    csr: CSRGraph, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Exact ``d(sources[i], targets[i])`` for each pair of vertex
    indices, ``inf`` where the target is unreachable.

    Each distinct source is swept once, in blocks of
    :func:`sweep_block_rows` sources, and each block's entries are
    gathered before the next block is swept.  A value is the sweep's
    value from that pair's source, whatever the block size.
    """
    distinct, row = np.unique(sources, return_inverse=True)
    exact = np.empty(row.size)
    rows = sweep_block_rows(csr)
    with kernel_span("engine.pairs", pairs=row.size, sources=distinct.size):
        for lo in range(0, distinct.size, rows):
            block = multi_source_distances(csr, distinct[lo : lo + rows])
            mine = (row >= lo) & (row < lo + rows)
            exact[mine] = block[row[mine] - lo, targets[mine]]
    return exact


def relaxation_distances(
    csr: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    limit: float = np.inf,
) -> np.ndarray:
    """Pure-numpy multi-source distances (the scipy-free fallback).

    Runs pull-style Bellman–Ford rounds — for every vertex with
    incoming arcs, one ``np.minimum.reduceat`` over the gathered tail
    distances — until a round changes nothing.  Weights must be
    nonnegative; the fixpoint then matches Dijkstra bit for bit, and
    is reached within ``n`` rounds (a round that is still improving
    after that raises :class:`~repro.exceptions.EngineError`).  Entries
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
            raise EngineError(
                f"relaxation did not settle within {n + 1} rounds"
            )
    dist[dist > limit] = np.inf
    return dist
