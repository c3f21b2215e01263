"""E2 — Algorithm 1 / Theorem 4.1 / Figure 1: single-source tree
distances.

Measured max error across all root-to-vertex distances vs the paper's
``O(log^1.5 V log(1/gamma))/eps`` bound, across tree sizes and shapes.
Shape to check: error grows polylogarithmically (not linearly) in V and
stays below the bound.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_tree_single_source
from repro.analysis import render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import RootedTree, generators

EPS = 1.0
GAMMA = 0.05
SIZES = [32, 128, 512, 2048]


def _tree(kind: str, n: int, rng):
    if kind == "random":
        tree = generators.random_tree(n, rng)
    elif kind == "path":
        tree = generators.path_graph(n)
    elif kind == "star":
        tree = generators.star_graph(n)
    else:
        raise ValueError(kind)
    return generators.assign_random_weights(tree, rng, 0.0, 10.0)


def run_experiment() -> str:
    rng = fresh_rng(10)
    rows = []
    for kind in ("random", "path", "star"):
        for n in SIZES:
            tree = _tree(kind, n, rng.spawn())
            rooted = RootedTree(tree, 0)
            max_errors = []
            depth = None
            for _ in range(TRIALS):
                release = release_tree_single_source(
                    rooted, eps=EPS, rng=rng.spawn()
                )
                depth = release.recursion_depth
                max_errors.append(
                    max(
                        abs(
                            release.distance_from_root(v)
                            - rooted.distance_from_root(v)
                        )
                        for v in tree.vertices()
                    )
                )
            bound = bounds.tree_single_source_error(n, EPS, GAMMA / n)
            summary = summarize_errors(max_errors)
            rows.append(
                [kind, n, depth, summary.mean, summary.maximum, bound]
            )
    return render_table(
        ["tree", "V", "depth", "mean max-err", "worst max-err", "bound (Thm 4.1)"],
        rows,
        title=(
            "E2  Single-source tree distances (Algorithm 1), eps=1.\n"
            "Expected shape: error ~ log^1.5 V, far below the V/eps "
            "baseline, within the bound."
        ),
    )


def check(table: str) -> None:
    rows = parse_rows(table)
    assert len(rows) == 12  # 3 families x 4 sizes
    for row in rows:
        measured_worst, bound = float(row[4]), float(row[5])
        assert measured_worst <= bound
    # Polylog growth: error at V=2048 is < 6x error at V=32 per family.
    random_rows = [r for r in rows if r[0] == "random"]
    assert float(random_rows[-1][3]) < 6 * float(random_rows[0][3])


if __name__ == "__main__":
    print_experiment(run_experiment())
