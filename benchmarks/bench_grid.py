"""E6 — Theorem 4.7: the sqrt(V) x sqrt(V) grid specialization.

The explicit lattice covering gives ``V^(1/3)``-scaling error.  The
table sweeps grid side length and reports measured error, the general
Lemma-4.4-based release, and the Theorem 4.7 bound.  Shape to check:
the specialized grid covering matches or beats the generic construction
and error grows ~V^(1/3).
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_bounded_weight, release_grid_bounded_weight
from repro.algorithms import all_pairs_dijkstra
from repro.analysis import render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import generators

EPS = 1.0
DELTA = 1e-6
GAMMA = 0.05
M = 0.5
SIDES = [6, 10, 14]


def run_experiment() -> str:
    rng = fresh_rng(50)
    rows = []
    for side in SIDES:
        v = side * side
        graph = generators.grid_graph(side, side)
        graph = generators.assign_random_weights(graph, rng.spawn(), 0.0, M)
        exact = all_pairs_dijkstra(graph)
        corners = [(0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)]
        centers = [(side // 2, side // 2)]
        pairs = [
            (a, b)
            for a in corners + centers
            for b in corners + centers
            if a < b
        ]
        grid_errors, generic_errors = [], []
        grid_z = None
        for _ in range(TRIALS):
            grid_release = release_grid_bounded_weight(
                graph, side, side, M, eps=EPS, rng=rng.spawn(), delta=DELTA
            )
            generic = release_bounded_weight(
                graph, M, eps=EPS, rng=rng.spawn(), delta=DELTA
            )
            grid_z = grid_release.covering_size
            grid_errors.append(
                max(
                    abs(grid_release.distance(a, b) - exact[a][b])
                    for a, b in pairs
                )
            )
            generic_errors.append(
                max(
                    abs(generic.distance(a, b) - exact[a][b])
                    for a, b in pairs
                )
            )
        rows.append(
            [
                side,
                v,
                grid_z,
                summarize_errors(grid_errors).mean,
                summarize_errors(generic_errors).mean,
                bounds.grid_error_approx(v, M, EPS, DELTA, GAMMA),
            ]
        )
    return render_table(
        [
            "side",
            "V",
            "|Z| grid",
            "grid covering err",
            "generic covering err",
            "bound (Thm 4.7)",
        ],
        rows,
        title=(
            "E6  Grid distances (Theorem 4.7), eps=1, delta=1e-6, "
            f"M={M}.\nExpected shape: error ~ V^(1/3), within the bound."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == len(SIDES)
    for row in lines:
        measured, bound = float(row[3]), float(row[5])
        assert measured <= bound
    # Sublinear: V grows 5.4x from side 6 to 14; error grows < 3x.
    assert float(lines[-1][3]) < 3.0 * max(float(lines[0][3]), 0.5)


if __name__ == "__main__":
    print_experiment(run_experiment())
