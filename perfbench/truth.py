"""Exact distances for checking served answers, computed after timing.

The benchmark's own Dijkstra over a scipy matrix it builds from the
edge list, independent of the library's engine.  Sources are swept in
chunks so the ground truth never holds a V x V matrix.
"""

from __future__ import annotations

import numpy as np

SOURCE_CHUNK = 256


def exact_distances(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Shortest-path distance of every ``(sources[i], targets[i])`` on
    the undirected graph with edges ``(u[e], v[e], weights[e])``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    matrix = csr_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )
    distinct, row = np.unique(sources, return_inverse=True)
    out = np.empty(len(sources))
    for lo in range(0, len(distinct), SOURCE_CHUNK):
        rows = dijkstra(matrix, indices=distinct[lo : lo + SOURCE_CHUNK])
        mask = (row >= lo) & (row < lo + SOURCE_CHUNK)
        out[mask] = rows[row[mask] - lo, targets[mask]]
    return out
