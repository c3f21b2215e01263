"""E17 — the engine: CSR speedup and bit-level agreement.

Runs the library's hottest exact-recomputation path — all-pairs
distances on a 16x16 grid (V=256, the Theorem 4.7 workload shape) —
through each implementation and reports wall-clock seconds, speedup
over the dict-based reference, and whether the distances agree *bit
for bit*:

* ``dict reference`` — ``dijkstra`` from every source;
* ``CSR sweep`` — ``all_pairs_dijkstra``, one CSR multi-source sweep
  (scipy's C Dijkstra when available, vectorized relaxation
  otherwise);
* ``relaxation kernel`` — the scipy-free fallback, timed explicitly.

Weights are random *integers* in [1, 10], so every path sum is exactly
representable; bit-level equality would hold for arbitrary weights
too, since all three compute minima over left-associated sums.

``python benchmarks/bench_engine.py --quick`` runs a reduced 8x8
instance — the CI smoke configuration.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Tuple

sys.path.insert(0, ".")  # allow `python benchmarks/bench_engine.py`

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro.algorithms.shortest_paths import all_pairs_dijkstra, dijkstra
from repro.analysis import render_table
from repro.engine import CSRGraph, kernels
from repro.graphs import generators
from repro.rng import Rng

GRID = 16
QUICK_GRID = 8
TRIALS = 3

#: The CSR sweep must beat the reference by at least this factor on the
#: full-size instance.
REQUIRED_SPEEDUP = 5.0


def integer_grid(size: int, rng: Rng):
    """The benchmark workload: a size x size grid with random integer
    weights in [1, 10]."""
    graph = generators.grid_graph(size, size)
    weights = [float(rng.integer(1, 11)) for _ in range(graph.num_edges)]
    return graph.with_weights(weights)


def _best_of(fn: Callable[[], object], trials: int) -> Tuple[float, object]:
    """Minimum wall-clock over repeated runs, plus the last result."""
    best = float("inf")
    result: object = None
    for _ in range(trials):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_experiment(quick: bool = False) -> str:
    size = QUICK_GRID if quick else GRID
    trials = 1 if quick else TRIALS
    graph = integer_grid(size, fresh_rng(180))
    csr = CSRGraph.from_graph(graph)  # warm the compile cache

    t_reference, reference = _best_of(
        lambda: {
            s: dijkstra(graph, s)[0]
            for s in graph.vertex_list()
        },
        trials,
    )
    t_csr, via_csr = _best_of(lambda: all_pairs_dijkstra(graph), trials)
    t_relax, relax_matrix = _best_of(
        lambda: kernels.relaxation_distances(csr, range(csr.n)), trials
    )

    def matrix_matches(matrix) -> bool:
        vertices = csr.vertices
        return all(
            matrix[i][j] == reference[s][t]
            for i, s in enumerate(vertices)
            for j, t in enumerate(vertices)
        )

    rows = [
        ["dict reference", t_reference, 1.0, True],
        ["CSR sweep", t_csr, t_reference / t_csr, via_csr == reference],
        [
            "relaxation kernel",
            t_relax,
            t_reference / t_relax,
            matrix_matches(relax_matrix),
        ],
    ]
    return render_table(
        ["implementation", "seconds", "speedup", "exact match"],
        rows,
        title=(
            f"E17  Engine: exact all-pairs distances on a "
            f"{size}x{size} integer-weight grid (V={size * size}), "
            f"best of {trials}.\n"
            "Expected shape: CSR sweep >= "
            f"{REQUIRED_SPEEDUP:.0f}x over the dict reference with "
            "bit-identical distances."
        ),
        precision=4,
    )


def check(table: str) -> None:
    rows = parse_rows(table)
    by_name = {r[0]: r for r in rows}
    # Bit-level agreement is non-negotiable for every implementation.
    assert all(r[3] == "True" for r in rows)
    # The acceptance bar only binds when the C Dijkstra is available;
    # the scipy-free fallback is asserted correct above, not fast.
    try:
        import scipy  # noqa: F401
    except ImportError:
        return
    assert float(by_name["CSR sweep"][2]) >= REQUIRED_SPEEDUP


if __name__ == "__main__":
    print_experiment(run_experiment(quick="--quick" in sys.argv[1:]))
