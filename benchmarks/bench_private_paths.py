"""E7 — Algorithm 3 / Theorem 5.5 / Corollary 5.6: private shortest
paths.

Two tables:

1. error stratified by the hop count of the true shortest path — the
   shape to check is *linear growth in hops, independent of V*, staying
   below the ``(2k/eps) log(E/gamma)`` bound;
2. the hop-bias ablation — with the ``(1/eps) log(E/gamma)`` offset
   removed, low-hop accuracy degrades on heavy-weight graphs.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_private_paths
from repro.algorithms import dijkstra_path, path_hops
from repro.analysis import path_error, render_table, summarize_errors
from repro.dp import bounds
from repro.workloads import grid_road_network, pairs_by_hop_bucket

EPS = 1.0
GAMMA = 0.05
SIDE = 14
BUCKETS = [(1, 2), (3, 5), (6, 10), (11, 18), (19, 26)]


def run_experiment() -> str:
    rng = fresh_rng(60)
    network = grid_road_network(SIDE, SIDE, rng.spawn(), block_minutes=8.0)
    graph = network.graph
    buckets = pairs_by_hop_bucket(
        graph, rng.spawn(), per_bucket=8, buckets=BUCKETS
    )
    rows = []
    for bucket in BUCKETS:
        pairs = buckets[bucket]
        if not pairs:
            continue
        biased_errors, unbiased_errors, hops_seen = [], [], []
        for _ in range(TRIALS):
            biased = release_private_paths(graph, EPS, GAMMA, rng.spawn())
            unbiased = release_private_paths(
                graph, EPS, GAMMA, rng.spawn(), hop_bias=False
            )
            for s, t in pairs:
                true_path, _ = dijkstra_path(graph, s, t)
                hops_seen.append(path_hops(true_path))
                biased_errors.append(path_error(graph, biased.path(s, t)))
                unbiased_errors.append(
                    path_error(graph, unbiased.path(s, t))
                )
        mean_hops = sum(hops_seen) / len(hops_seen)
        bound = bounds.shortest_path_error(
            int(max(hops_seen)), graph.num_edges, EPS, GAMMA
        )
        rows.append(
            [
                f"{bucket[0]}-{bucket[1]}",
                mean_hops,
                summarize_errors(biased_errors).mean,
                summarize_errors(biased_errors).maximum,
                summarize_errors(unbiased_errors).mean,
                bound,
            ]
        )
    worst_case = bounds.shortest_path_error_worst_case(
        graph.num_vertices, graph.num_edges, EPS, GAMMA
    )
    return render_table(
        [
            "hop bucket",
            "mean hops",
            "Alg3 mean err",
            "Alg3 max err",
            "no-bias mean err",
            "bound (Thm 5.5)",
        ],
        rows,
        title=(
            "E7  Private shortest paths (Algorithm 3) on a "
            f"{SIDE}x{SIDE} road grid, eps=1.\n"
            "Expected shape: error grows with hops, not V "
            f"(Cor 5.6 worst case here: {worst_case:.1f})."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) >= 4
    # Error grows with hops: last bucket mean > first bucket mean.
    assert float(lines[-1][2]) > float(lines[0][2])
    # Always below the per-bucket Theorem 5.5 bound.
    for row in lines:
        assert float(row[3]) <= float(row[5])


if __name__ == "__main__":
    print_experiment(run_experiment())
