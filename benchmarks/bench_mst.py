"""E9 — Appendix B.1 / Theorems B.1, B.3: private almost-minimum
spanning trees.

Two parts: (1) the Theorem B.3 upper bound on random graphs — released
tree weight within ``2(V-1)/eps log(E/gamma)`` of the optimum, error
growing ~V; (2) the Theorem B.1 reconstruction attack on the Figure 3
(left) star gadget — exact MST leaks all bits, the private one errs on
about half and pays ~alpha in weight.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import numpy as np

from benchmarks.common import TRIALS, fresh_rng, parse_rows, print_experiment
from repro import release_private_mst
from repro.algorithms import kruskal_mst, spanning_tree_weight
from repro.analysis import render_table, summarize_errors
from repro.core import lower_bounds as lb
from repro.dp import bounds
from repro.graphs import generators

EPS = 1.0
GAMMA = 0.05
SIZES = [20, 40, 80]


def run_experiment() -> str:
    rng = fresh_rng(80)
    rows = []
    for n in SIZES:
        graph = generators.erdos_renyi_graph(n, 4.0 / n, rng.spawn())
        graph = generators.assign_random_weights(graph, rng.spawn(), 0.0, 10.0)
        optimum = spanning_tree_weight(graph, kruskal_mst(graph))
        errors = []
        for _ in range(TRIALS * 2):
            release = release_private_mst(graph, eps=EPS, rng=rng.spawn())
            errors.append(release.true_weight(graph) - optimum)
        summary = summarize_errors(errors)
        rows.append(
            [
                f"G({n})",
                summary.mean,
                summary.maximum,
                bounds.mst_error(n, graph.num_edges, EPS, GAMMA),
            ]
        )
    # Lower-bound attack on the star gadget.
    n_bits, attack_eps = 80, 0.1
    gadget = lb.star_gadget(n_bits)
    hamming_fracs, weight_errors = [], []
    for _ in range(25):
        bits = rng.bits(n_bits)
        weights = lb.star_weights_from_bits(bits)
        tree, _ = lb.private_gadget_mst(
            gadget, weights, eps=attack_eps, rng=rng.spawn()
        )
        decoded = lb.decode_star_bits(n_bits, tree)
        hamming_fracs.append(lb.hamming_distance(bits, decoded) / n_bits)
        concrete = gadget.with_weights(weights)
        weight_errors.append(sum(concrete.weight(k) for k in tree))
    alpha = bounds.mst_lower_bound(n_bits + 1, attack_eps, 0.0)
    rows.append(
        [
            f"star gadget eps={attack_eps}",
            float(np.mean(weight_errors)),
            float(np.max(weight_errors)),
            alpha,
        ]
    )
    return render_table(
        ["instance", "mean err", "max err", "bound (B.3) / alpha (B.1)"],
        rows,
        title=(
            "E9  Private MST (Theorem B.3 upper bound; Theorem B.1 lower "
            "bound), eps=1 (upper rows).\nExpected shape: error ~V, below "
            "the B.3 bound; gadget error >= ~alpha."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    upper = [r for r in lines if r[0].startswith("G(")]
    assert len(upper) == len(SIZES)
    for row in upper:
        assert float(row[2]) <= float(row[3])  # within Theorem B.3
    gadget_row = [r for r in lines if r[0].startswith("star")][0]
    assert float(gadget_row[1]) >= 0.8 * float(gadget_row[3])  # >= ~alpha


if __name__ == "__main__":
    print_experiment(run_experiment())
