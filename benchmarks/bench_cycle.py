"""E13 (extension) — private all-pairs distances on cycles.

The paper's future-work section asks for all-pairs algorithms on more
network classes; `repro.core.cycle_distances` extends the Appendix A
construction to cycles (break edge + hub hierarchy + noisy total).

The table sweeps V and compares the cycle release against the
synthetic-graph baseline on worst-case (antipodal and
across-the-break) pairs.  Shape to check: polylog error, beating the
baseline's ~sqrt(V)-measured / V-guaranteed error as V grows.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_cycle_distances, release_synthetic_graph
from repro.algorithms import dijkstra_path
from repro.analysis import render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import generators

EPS = 1.0
SIZES = [64, 256, 1024, 4096]


def run_experiment() -> str:
    rng = fresh_rng(130)
    rows = []
    for n in SIZES:
        graph = generators.cycle_graph(n)
        graph = generators.assign_random_weights(graph, rng.spawn(), 0.5, 4.0)
        pairs = [
            (0, n // 2),           # antipodal
            (0, n - 1),            # across the break edge
            (n // 4, 3 * n // 4),  # antipodal, off-break
            (10, n // 2 + 10),
        ]
        exact = {}
        for x, y in pairs:
            _, exact[(x, y)] = dijkstra_path(graph, x, y)
        cycle_errors, baseline_errors = [], []
        for _ in range(TRIALS):
            release = release_cycle_distances(graph, eps=EPS, rng=rng.spawn())
            baseline = release_synthetic_graph(graph, eps=EPS, rng=rng.spawn())
            for x, y in pairs:
                cycle_errors.append(
                    abs(release.distance(x, y) - exact[(x, y)])
                )
                baseline_errors.append(
                    abs(baseline.distance(x, y) - exact[(x, y)])
                )
        rows.append(
            [
                n,
                summarize_errors(cycle_errors).mean,
                summarize_errors(baseline_errors).mean,
                2 * bounds.tree_single_source_error(n, EPS / 2, 0.05),
            ]
        )
    return render_table(
        ["V", "cycle release err", "baseline err", "~2x tree bound"],
        rows,
        title=(
            "E13 (extension)  All-pairs distances on cycles, eps=1.\n"
            "Expected shape: polylog error; overtakes the baseline's "
            "~sqrt(V) measured error as V grows."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == len(SIZES)
    # Polylog: 64x more vertices -> < 6x more error.
    assert float(lines[-1][1]) < 6 * max(float(lines[0][1]), 1.0)
    # Beats the baseline at the largest size.
    assert float(lines[-1][1]) < float(lines[-1][2])
    # Within (a doubled) tree-style bound at every size.
    for row in lines:
        assert float(row[1]) <= float(row[3])


if __name__ == "__main__":
    print_experiment(run_experiment())
