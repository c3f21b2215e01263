"""E10 — Appendix B.2 / Theorems B.4, B.6: private low-weight perfect
matchings.

Upper bound on random bipartite graphs (Theorem B.6: error below
``(V/eps) log(E/gamma)``), plus the Theorem B.4 reconstruction attack
on the Figure 3 (right) hourglass instance.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import numpy as np

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import WeightedGraph, release_private_matching
from repro.algorithms import (
    hungarian_min_cost_perfect_matching,
    matching_weight,
)
from repro.analysis import render_table, summarize_errors
from repro.core import lower_bounds as lb
from repro.dp import bounds

EPS = 1.0
GAMMA = 0.05
SIZES = [6, 12, 24]


def _bipartite(n: int, rng) -> WeightedGraph:
    graph = WeightedGraph()
    for i in range(n):
        for j in range(n):
            graph.add_edge(("L", i), ("R", j), rng.uniform(0.0, 5.0))
    return graph


def run_experiment() -> str:
    rng = fresh_rng(90)
    rows = []
    for n in SIZES:
        graph = _bipartite(n, rng.spawn())
        optimum = matching_weight(
            graph, hungarian_min_cost_perfect_matching(graph)
        )
        errors = []
        for _ in range(TRIALS * 2):
            release = release_private_matching(
                graph, eps=EPS, rng=rng.spawn(), engine="hungarian"
            )
            errors.append(release.true_weight(graph) - optimum)
        summary = summarize_errors(errors)
        rows.append(
            [
                f"K({n},{n})",
                summary.mean,
                summary.maximum,
                bounds.matching_error(
                    graph.num_vertices, graph.num_edges, EPS, GAMMA
                ),
            ]
        )
    # Lower-bound attack on the hourglass instance.
    n_bits, attack_eps = 60, 0.1
    gadget = lb.hourglass_gadget(n_bits)
    hamming_fracs, weight_errors = [], []
    for _ in range(25):
        bits = rng.bits(n_bits)
        weights = lb.hourglass_weights_from_bits(bits)
        matching, _ = lb.private_gadget_matching(
            gadget, weights, eps=attack_eps, rng=rng.spawn()
        )
        decoded = lb.decode_matching_bits(n_bits, matching)
        hamming_fracs.append(lb.hamming_distance(bits, decoded) / n_bits)
        concrete = gadget.with_weights(weights)
        weight_errors.append(
            sum(concrete.weight(u, v) for u, v in matching)
        )
    alpha = bounds.matching_lower_bound(4 * n_bits, attack_eps, 0.0)
    rows.append(
        [
            f"hourglass eps={attack_eps}",
            float(np.mean(weight_errors)),
            float(np.max(weight_errors)),
            alpha,
        ]
    )
    return render_table(
        ["instance", "mean err", "max err", "bound (B.6) / alpha (B.4)"],
        rows,
        title=(
            "E10  Private perfect matching (Theorem B.6 upper bound; "
            "Theorem B.4 lower bound), eps=1 (upper rows).\n"
            "Expected shape: error below the B.6 bound; gadget error "
            ">= ~alpha."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    upper = [r for r in lines if r[0].startswith("K(")]
    assert len(upper) == len(SIZES)
    for row in upper:
        assert float(row[2]) <= float(row[3])
    gadget_row = [r for r in lines if r[0].startswith("hourglass")][0]
    assert float(gadget_row[1]) >= 0.8 * float(gadget_row[3])


if __name__ == "__main__":
    print_experiment(run_experiment())
