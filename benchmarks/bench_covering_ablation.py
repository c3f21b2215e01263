"""E15 (ablation) — covering construction: Lemma 4.4 vs greedy.

The remark after Theorem 4.6: "for some graphs we may be able to find a
smaller k-covering than that guaranteed by Lemma 4.4", which then
lowers Algorithm 2's noise.  This ablation compares the Meir–Moon
residue-class construction against greedy set cover on several graph
families, reporting covering sizes and the resulting Algorithm 2 noise
scale.  Shape to check: both are valid coverings within the Lemma 4.4
size bound (greedy usually smaller), and a smaller |Z| directly shrinks
the noise scale.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro import release_bounded_weight
from repro.algorithms import is_k_covering, meir_moon_k_covering
from repro.algorithms.covering import greedy_k_covering
from repro.analysis import render_table
from repro.graphs import generators

EPS = 1.0
DELTA = 1e-6
K = 3


def _families(rng):
    yield "grid 12x12", generators.grid_graph(12, 12)
    yield "path 144", generators.path_graph(144)
    yield "random tree 144", generators.random_tree(144, rng.spawn())
    yield "ER(144, 0.03)", generators.erdos_renyi_graph(
        144, 0.03, rng.spawn()
    )


def run_experiment() -> str:
    rng = fresh_rng(150)
    rows = []
    for name, graph in _families(rng):
        graph = generators.assign_random_weights(graph, rng.spawn(), 0.0, 1.0)
        mm = meir_moon_k_covering(graph, K)
        greedy = greedy_k_covering(graph, K)
        assert is_k_covering(graph, mm, K)
        assert is_k_covering(graph, greedy, K)
        mm_release = release_bounded_weight(
            graph, 1.0, eps=EPS, rng=rng.spawn(), delta=DELTA, k=K,
            covering=mm,
        )
        greedy_release = release_bounded_weight(
            graph, 1.0, eps=EPS, rng=rng.spawn(), delta=DELTA, k=K,
            covering=greedy,
        )
        rows.append(
            [
                name,
                graph.num_vertices // (K + 1),  # Lemma 4.4 guarantee
                len(mm),
                len(greedy),
                mm_release.noise_scale,
                greedy_release.noise_scale,
            ]
        )
    return render_table(
        [
            "graph",
            "Lemma 4.4 cap",
            "|Z| Meir-Moon",
            "|Z| greedy",
            "noise scale MM",
            "noise scale greedy",
        ],
        rows,
        title=(
            f"E15 (ablation)  k-covering constructions at k={K}, eps=1, "
            "delta=1e-6.\nExpected shape: both within the Lemma 4.4 cap; "
            "smaller covering -> smaller Algorithm 2 noise."
        ),
    )


def check(table: str) -> None:
    lines = parse_rows(table)
    assert len(lines) == 4
    for row in lines:
        cap, mm, greedy = int(row[1]), int(row[2]), int(row[3])
        assert mm <= cap
        # Noise scale tracks covering size: the smaller covering never
        # has the larger scale.
        scale_mm, scale_greedy = float(row[4]), float(row[5])
        if greedy < mm:
            assert scale_greedy <= scale_mm
        elif mm < greedy:
            assert scale_mm <= scale_greedy


if __name__ == "__main__":
    print_experiment(run_experiment())
