"""The dict-of-dicts all-pairs release, kept as a test oracle.

This is how :class:`repro.core.distance_oracle.AllPairsBasicRelease`
and :class:`~repro.core.distance_oracle.AllPairsAdvancedRelease`
computed their table before they read one engine matrix: a
dict-of-dicts :func:`~repro.algorithms.shortest_paths.all_pairs_dijkstra`
sweep, then one Laplace draw over the unordered pairs in the graph's
vertex order, yielded lazily.  It pins what a seeded all-pairs release
must hold, value for value and byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.algorithms.shortest_paths import all_pairs_dijkstra
from repro.core.distance_oracle import all_pairs_noise_scale
from repro.dp.params import PrivacyParams
from repro.graphs.graph import Vertex, WeightedGraph
from repro.rng import Rng
from repro.serving.synopsis import AllPairsSynopsis


def _ordered_pairs(vertices: List[Vertex]) -> Iterator[Tuple[Vertex, Vertex]]:
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            yield vertices[i], vertices[j]


def reference_all_pairs_table(
    graph: WeightedGraph, eps: float, delta: float, rng: Rng
) -> Dict[Tuple[Vertex, Vertex], float]:
    """The released pair table of a seeded all-pairs release
    (``delta = 0`` the basic accounting, else the advanced one)."""
    exact = all_pairs_dijkstra(graph)
    vertices = graph.vertex_list()
    n = len(vertices)
    scale = all_pairs_noise_scale(n, eps, delta)
    noise = rng.laplace_vector(scale, n * (n - 1) // 2)
    return {
        (s, t): exact[s][t] + float(x)
        for (s, t), x in zip(_ordered_pairs(vertices), noise)
    }


def reference_all_pairs_synopsis(
    graph: WeightedGraph, eps: float, delta: float, rng: Rng
) -> AllPairsSynopsis:
    """:func:`reference_all_pairs_table` wrapped as an
    :class:`AllPairsSynopsis`, its vertex set read off the table."""
    table = reference_all_pairs_table(graph, eps, delta, rng)
    vertices = {v for pair in table for v in pair} or set(graph.vertices())
    params = PrivacyParams(eps, delta) if delta else PrivacyParams(eps)
    return AllPairsSynopsis(params, table, vertices)
