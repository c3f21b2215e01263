"""E12 — Section 1.2 "Scaling": error scales with the neighboring unit.

The paper's remark: if one individual can shift the weights by only
``u`` (instead of 1) in L1, all error bounds scale by ``u`` — e.g. with
``u = 1/V`` the path error drops from ``O(V log V)/eps`` to
``O(log V)/eps``.  Workload: a grid road network (many alternative
routes, so path errors are non-trivial), corner-to-corner and mid-range
pairs.  Shape to check: measured error scales ~linearly with the unit.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_private_paths
from repro.analysis import path_error, render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import generators

EPS = 1.0
GAMMA = 0.05
SIDE = 12
UNITS = [1.0, 0.1, 1.0 / (SIDE * SIDE)]
PAIRS = [
    ((0, 0), (SIDE - 1, SIDE - 1)),
    ((0, SIDE - 1), (SIDE - 1, 0)),
    ((0, 0), (SIDE // 2, SIDE // 2)),
    ((3, 3), (8, 9)),
]


def run_experiment() -> str:
    rng = fresh_rng(120)
    graph = generators.grid_graph(SIDE, SIDE)
    graph = generators.assign_random_weights(graph, rng.spawn(), 1.0, 5.0)
    rows = []
    for unit in UNITS:
        errors = []
        for _ in range(TRIALS * 4):
            release = release_private_paths(
                graph, EPS, GAMMA, rng.spawn(), sensitivity_unit=unit
            )
            for s, t in PAIRS:
                errors.append(path_error(graph, release.path(s, t)))
        summary = summarize_errors(errors)
        bound = unit * bounds.shortest_path_error(
            2 * (SIDE - 1), graph.num_edges, EPS, GAMMA
        )
        rows.append([unit, summary.mean, summary.maximum, bound])
    return render_table(
        ["unit", "mean err", "max err", "scaled bound"],
        rows,
        title=(
            "E12  Sensitivity-unit scaling (Section 1.2 remark) on a "
            f"{SIDE}x{SIDE} grid, eps=1.\nExpected shape: error scales "
            "~linearly with the unit (1/V unit -> ~log V error)."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == len(UNITS)
    # Rows are in UNITS order: [1.0, 0.1, 1/V].
    unit_err = {unit: float(row[1]) for unit, row in zip(UNITS, lines)}
    # Mean error at unit 1 is much larger than at unit 1/V; at unit
    # 0.1 it sits in between.  (Loose bands: single-topology noise.)
    assert unit_err[1.0] > unit_err[0.1] >= unit_err[min(UNITS)]
    ratio = unit_err[1.0] / max(unit_err[0.1], 1e-9)
    assert 2.0 < ratio < 60.0
    for row in lines:
        assert float(row[2]) <= float(row[3])  # within the scaled bound


if __name__ == "__main__":
    print_experiment(run_experiment())
