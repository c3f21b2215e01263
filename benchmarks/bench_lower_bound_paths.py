"""E8 — Figure 2 / Theorem 5.1 / Lemmas 5.2-5.4: the shortest-path
reconstruction lower bound.

Runs the full reduction on the parallel-path gadget: a non-private
exact solver reconstructs the secret bits perfectly (Hamming 0, path
error 0); the eps-DP Algorithm 3 errs on ~half the bits — at least the
Lemma 5.3 per-bit floor ``(1-delta)/(1+e^{2 eps})``-ish — and
consequently pays path error around the Theorem 5.1 floor ``alpha =
(V-1)(1-(1+e^eps)delta)/(1+e^{2eps})``.

Shape to check: measured private path error >= ~alpha; exact solver
error = 0 with Hamming 0 (the blatant leak).
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import numpy as np

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro.analysis import render_table
from repro.core import lower_bounds as lb
from repro.dp import bounds

N = 100  # bit positions = V - 1
EPS_VALUES = [0.05, 0.1, 0.5, 1.0, 2.0]
ATTACK_TRIALS = 30


def run_experiment() -> str:
    rng = fresh_rng(70)
    gadget = lb.parallel_path_gadget(N)
    rows = []
    # The exact (non-private) solver row.
    bits = rng.bits(N)
    exact_keys = lb.exact_gadget_path(gadget, lb.path_weights_from_bits(bits))
    exact_hamming = lb.hamming_distance(
        bits, lb.decode_path_bits(N, exact_keys)
    )
    rows.append(["exact (no DP)", exact_hamming / N, 0.0, 0.0, 0.0])
    for eps in EPS_VALUES:
        hamming_fracs, path_errors = [], []
        for _ in range(ATTACK_TRIALS):
            bits = rng.bits(N)
            weights = lb.path_weights_from_bits(bits)
            keys, _ = lb.private_gadget_path(
                gadget, weights, eps=eps, gamma=0.1, rng=rng.spawn()
            )
            decoded = lb.decode_path_bits(N, keys)
            hamming_fracs.append(lb.hamming_distance(bits, decoded) / N)
            concrete = gadget.with_weights(weights)
            path_errors.append(concrete.path_weight(keys))
        alpha = bounds.reconstruction_lower_bound(N + 1, eps, 0.0)
        floor = bounds.row_recovery_bound(2 * eps, 0.0)
        rows.append(
            [
                f"Alg3 eps={eps}",
                float(np.mean(hamming_fracs)),
                float(np.mean(path_errors)),
                alpha,
                floor,
            ]
        )
    return render_table(
        [
            "mechanism",
            "Hamming frac",
            "mean path err",
            "alpha (Thm 5.1)",
            "per-bit floor (Lem 5.3)",
        ],
        rows,
        title=(
            f"E8  Reconstruction lower bound on the Figure 2 gadget, "
            f"n={N} bits.\nExpected shape: exact solver leaks everything "
            "with zero error; DP release pays >= ~alpha error."
        ),
    )


def check(table: str) -> None:
    parsed = parse_rows(table)
    assert len(parsed) == 1 + len(EPS_VALUES)
    exact_row = parsed[0]
    assert float(exact_row[1]) == 0.0  # perfect reconstruction
    # At the smallest eps the mean path error reaches ~alpha.
    smallest = parsed[1]
    assert float(smallest[2]) >= 0.8 * float(smallest[3])
    # Hamming fraction exceeds the per-bit floor.
    assert float(smallest[1]) >= 0.9 * float(smallest[4])
    # Reconstruction improves (Hamming falls) as eps grows.
    assert float(parsed[-1][1]) < float(parsed[1][1])


if __name__ == "__main__":
    print_experiment(run_experiment())
