"""E1 — Section 4 intro: single-pair and all-pairs distance baselines.

Reproduces the paper's opening calculation: a single distance query
needs only ``Lap(1/eps)`` noise; all-pairs needs ``~V^2/eps`` (pure,
basic composition) or ``~V sqrt(ln 1/delta)/eps`` (approx, advanced
composition).  The table shows measured per-query error for each
approach across graph sizes — the shape to check is *basic grows
quadratically, advanced linearly, single-pair stays flat*.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")  # allow `python benchmarks/bench_*.py`

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    private_distance,
)
from repro.analysis import render_table, summarize_errors
from repro.dp import bounds
from repro.graphs import generators

EPS = 1.0
DELTA = 1e-6
SIZES = [10, 20, 40]


def _workload(n: int, rng):
    graph = generators.erdos_renyi_graph(n, 2.0 / n, rng)
    return generators.assign_random_weights(graph, rng, 0.0, 10.0)


def run_experiment() -> str:
    rng = fresh_rng(1)
    rows = []
    for n in SIZES:
        graph = _workload(n, rng.spawn())
        pairs = [
            (graph.vertex_list()[0], t) for t in graph.vertex_list()[1:]
        ]
        single_errors, basic_errors, advanced_errors = [], [], []
        from repro.algorithms import all_pairs_dijkstra

        exact = all_pairs_dijkstra(graph)
        for _ in range(TRIALS):
            child = rng.spawn()
            basic = AllPairsBasicRelease(graph, EPS, child)
            advanced = AllPairsAdvancedRelease(graph, EPS, DELTA, child)
            for s, t in pairs:
                single_errors.append(
                    abs(private_distance(graph, s, t, EPS, child) - exact[s][t])
                )
                basic_errors.append(abs(basic.distance(s, t) - exact[s][t]))
                advanced_errors.append(
                    abs(advanced.distance(s, t) - exact[s][t])
                )
        rows.append(
            [
                n,
                summarize_errors(single_errors).mean,
                summarize_errors(basic_errors).mean,
                summarize_errors(advanced_errors).mean,
                bounds.all_pairs_basic_noise_scale(n, EPS),
                bounds.all_pairs_advanced_noise_scale(n, EPS, DELTA),
            ]
        )
    return render_table(
        [
            "V",
            "single mean err",
            "basic mean err",
            "advanced mean err",
            "basic scale (paper)",
            "advanced scale (paper)",
        ],
        rows,
        title=(
            "E1  Distance oracles (Section 4 intro), eps=1, delta=1e-6.\n"
            "Expected shape: basic ~ V^2, advanced ~ V, single flat."
        ),
    )


def check(table: str) -> None:
    rows = parse_rows(table)
    first = [float(x) for x in rows[0]]
    last = [float(x) for x in rows[-1]]
    assert last[2] / first[2] > last[3] / first[3]  # basic grows faster


if __name__ == "__main__":
    print_experiment(run_experiment())
