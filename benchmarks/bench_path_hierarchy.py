"""E4 — Appendix A / Theorem A.1: the path-graph hub hierarchy.

The paper says the Appendix A construction matches the tree algorithm's
``O(log^1.5 V)/eps`` per-distance error (both restate DNPR10).  The
table compares the two algorithms on the same path graphs; the shape to
check is *same order of magnitude, both polylog*.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_path_hierarchy, release_tree_single_source
from repro.analysis import render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import RootedTree, generators

EPS = 1.0
GAMMA = 0.05
SIZES = [64, 256, 1024, 4096]


def run_experiment() -> str:
    rng = fresh_rng(30)
    rows = []
    for n in SIZES:
        graph = generators.path_graph(n)
        graph = generators.assign_random_weights(graph, rng.spawn(), 0.0, 5.0)
        rooted = RootedTree(graph, 0)
        targets = list(range(0, n, max(1, n // 24)))
        hub_errors, tree_errors = [], []
        for _ in range(TRIALS):
            hub = release_path_hierarchy(graph, eps=EPS, rng=rng.spawn())
            alg1 = release_tree_single_source(rooted, eps=EPS, rng=rng.spawn())
            for t in targets:
                true = rooted.distance_from_root(t)
                hub_errors.append(abs(hub.distance(0, t) - true))
                tree_errors.append(abs(alg1.distance_from_root(t) - true))
        rows.append(
            [
                n,
                summarize_errors(hub_errors).mean,
                summarize_errors(tree_errors).mean,
                bounds.tree_single_source_error(n, EPS, GAMMA),
            ]
        )
    return render_table(
        ["V", "hub hierarchy mean err", "Algorithm 1 mean err", "bound (Thm A.1)"],
        rows,
        title=(
            "E4  Path-graph distances: Appendix A hub hierarchy vs "
            "Algorithm 1, eps=1.\nExpected shape: comparable polylog error "
            "for both (the paper proves the same bound)."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == len(SIZES)
    for row in lines:
        hub, alg1 = float(row[1]), float(row[2])
        # Same order of magnitude.
        assert 0.1 < hub / alg1 < 10.0
    # Polylog: 64x more vertices < 6x more error.
    assert float(lines[-1][1]) < 6 * float(lines[0][1])


if __name__ == "__main__":
    print_experiment(run_experiment())
