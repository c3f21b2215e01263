"""E11 — Definition 2.2: empirical differential-privacy validation.

Monte-Carlo check of the DP inequality for every mechanism family on a
small fixed instance with neighboring weight functions.  For each
output event S the table reports the worst empirical likelihood ratio
``max(P[S]/P'[S], P'[S]/P[S])`` against the theoretical cap ``e^eps``
(with sampling slack).  Shape to check: measured ratio <= cap for all
mechanisms.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import math

import numpy as np

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro import (
    Rng,
    private_distance,
    release_tree_single_source,
)
from repro.analysis import render_table
from repro.core import lower_bounds as lb
from repro.graphs import generators

TRIALS = 30_000


def _interval_ratio(samples1, samples2, intervals) -> float:
    worst = 0.0
    for lo, hi in intervals:
        p = float(np.mean((samples1 >= lo) & (samples1 < hi)))
        q = float(np.mean((samples2 >= lo) & (samples2 < hi)))
        if min(p, q) < 0.01:
            continue  # too rare to estimate a ratio reliably
        worst = max(worst, p / q, q / p)
    return worst


def _binary_ratio(outcomes1, outcomes2) -> float:
    worst = 0.0
    for value in (0, 1):
        p = sum(1 for o in outcomes1 if o == value) / len(outcomes1)
        q = sum(1 for o in outcomes2 if o == value) / len(outcomes2)
        if min(p, q) < 0.01:
            continue
        worst = max(worst, p / q, q / p)
    return worst


def run_experiment() -> str:
    rows = []
    eps = 0.5

    # 1. Scalar Laplace distance query on neighboring path weights.
    rng = fresh_rng(110)
    g1 = generators.path_graph(3)
    g2 = g1.with_weights({(0, 1): 1.5, (1, 2): 1.5})  # L1 distance 1
    s1 = np.array(
        [private_distance(g1, 0, 2, eps, rng) for _ in range(TRIALS)]
    )
    s2 = np.array(
        [private_distance(g2, 0, 2, eps, rng) for _ in range(TRIALS)]
    )
    ratio = _interval_ratio(s1, s2, [(1.5, 2.5), (2.5, 3.5), (3.5, 4.5)])
    rows.append(["Laplace distance query", eps, ratio, math.exp(eps)])

    # 2. Algorithm 3 edge choice on the 1-bit gadget (reduction costs
    # a factor 2 in eps).
    gadget = lb.parallel_path_gadget(1)
    w0 = lb.path_weights_from_bits([0])
    w1 = lb.path_weights_from_bits([1])
    rng = fresh_rng(111)
    o0 = [
        lb.decode_path_bits(
            1,
            lb.private_gadget_path(gadget, w0, eps, 0.2, rng)[0],
        )[0]
        for _ in range(TRIALS)
    ]
    o1 = [
        lb.decode_path_bits(
            1,
            lb.private_gadget_path(gadget, w1, eps, 0.2, rng)[0],
        )[0]
        for _ in range(TRIALS)
    ]
    rows.append(
        ["Alg3 path choice (2eps cap)", eps, _binary_ratio(o0, o1), math.exp(2 * eps)]
    )

    # 3. Algorithm 1 root-to-leaf estimate on neighboring tree weights.
    rng = fresh_rng(112)
    t1 = generators.path_graph(4)
    t2 = t1.with_weights({(1, 2): 2.0})
    s1 = np.array(
        [
            release_tree_single_source(
                t1, eps=eps, rng=rng, root=0
            ).distance_from_root(3)
            for _ in range(TRIALS // 3)
        ]
    )
    s2 = np.array(
        [
            release_tree_single_source(
                t2, eps=eps, rng=rng, root=0
            ).distance_from_root(3)
            for _ in range(TRIALS // 3)
        ]
    )
    ratio = _interval_ratio(s1, s2, [(1.0, 3.0), (3.0, 5.0), (5.0, 7.0)])
    rows.append(["Alg1 tree estimate", eps, ratio, math.exp(eps)])

    # 4. MST edge choice on the 1-bit star gadget.
    gadget = lb.star_gadget(1)
    rng = fresh_rng(113)
    o0 = [
        lb.decode_star_bits(
            1, lb.private_gadget_mst(gadget, lb.star_weights_from_bits([0]), eps, rng)[0]
        )[0]
        for _ in range(TRIALS)
    ]
    o1 = [
        lb.decode_star_bits(
            1, lb.private_gadget_mst(gadget, lb.star_weights_from_bits([1]), eps, rng)[0]
        )[0]
        for _ in range(TRIALS)
    ]
    rows.append(
        ["MST edge choice (2eps cap)", eps, _binary_ratio(o0, o1), math.exp(2 * eps)]
    )

    return render_table(
        ["mechanism", "eps", "worst measured ratio", "cap e^eps"],
        rows,
        title=(
            "E11  Empirical DP validation (Definition 2.2), neighboring "
            "inputs, 30k samples.\nExpected shape: measured ratio <= cap "
            "(up to ~5% sampling slack) for every mechanism."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == 4
    for row in lines:
        measured, cap = float(row[2]), float(row[3])
        assert measured <= cap * 1.08  # 8% sampling slack


if __name__ == "__main__":
    print_experiment(run_experiment())
