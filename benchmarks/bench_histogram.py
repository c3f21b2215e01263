"""E14 (extension) — Section 1.3: the histogram-formulation trade-off.

Section 1.3 notes that generic synthetic-database machinery applies to
the private edge-weight model, yielding bounds that depend on
``||w||_1`` (incomparable to the paper's) at exponential running time.
This bench makes the trade-off concrete with the exponential-mechanism
release of :mod:`repro.core.histogram_release` on a tiny cycle:

* vs the Laplace synthetic graph (polynomial time) at the same eps,
* across total weight levels — the histogram route is competitive when
  ``||w||_1`` is small and the grid is fine, while its runtime is
  exponential (the candidate column) either way.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import time

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_synthetic_graph
from repro.algorithms import all_pairs_dijkstra
from repro.analysis import render_table, summarize_errors
from repro.core.histogram_release import release_histogram_distances
from repro.graphs import generators

EPS = 2.0
SETTINGS = [
    # (cycle size, weight bound M, grid resolution)
    (4, 1.0, 0.5),
    (5, 1.0, 0.5),
    (4, 2.0, 0.5),
    (4, 1.0, 0.25),
]


def run_experiment() -> str:
    rng = fresh_rng(140)
    rows = []
    for n, m, tau in SETTINGS:
        graph = generators.cycle_graph(n)
        # Put true weights on the grid so a zero-error candidate exists.
        levels = int(m / tau) + 1
        child = rng.spawn()
        snapped = [
            round(child.integer(0, levels) * tau, 12)
            for _ in range(graph.num_edges)
        ]
        graph = graph.with_weights(snapped)
        exact = all_pairs_dijkstra(graph)
        vertices = graph.vertex_list()
        pairs = [
            (vertices[i], vertices[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        hist_errors, base_errors = [], []
        candidates = None
        hist_seconds = 0.0
        for _ in range(TRIALS):
            start = time.perf_counter()
            hist = release_histogram_distances(
                graph, m, tau, eps=EPS, rng=rng.spawn()
            )
            hist_seconds += time.perf_counter() - start
            base = release_synthetic_graph(graph, eps=EPS, rng=rng.spawn())
            candidates = hist.num_candidates
            for s, t in pairs:
                hist_errors.append(abs(hist.distance(s, t) - exact[s][t]))
                base_errors.append(abs(base.distance(s, t) - exact[s][t]))
        rows.append(
            [
                n,
                m,
                tau,
                candidates,
                summarize_errors(hist_errors).mean,
                summarize_errors(base_errors).mean,
                hist_seconds / TRIALS,
            ]
        )
    return render_table(
        [
            "V",
            "M",
            "tau",
            "|C| (exp!)",
            "histogram err",
            "Laplace err",
            "hist sec/run",
        ],
        rows,
        title=(
            "E14 (extension)  Section 1.3 histogram formulation vs the "
            "Laplace synthetic graph, eps=2.\nExpected shape: histogram "
            "error competitive at small ||w||_1 / fine grids; candidate "
            "count (runtime) exponential in E."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == len(SETTINGS)
    # Candidate count is exponential: 5 edges at 3 levels = 243 vs 81.
    by_setting = {(int(r[0]), float(r[1]), float(r[2])): r for r in lines}
    assert int(by_setting[(5, 1.0, 0.5)][3]) == 3 ** 5
    assert int(by_setting[(4, 1.0, 0.5)][3]) == 3 ** 4
    # Finer grid -> more candidates.
    assert int(by_setting[(4, 1.0, 0.25)][3]) > int(
        by_setting[(4, 1.0, 0.5)][3]
    )
    # Errors are finite and bounded by the trivial max distance.
    for row in lines:
        assert 0.0 <= float(row[4]) <= float(row[0]) * float(row[1])


if __name__ == "__main__":
    print_experiment(run_experiment())
