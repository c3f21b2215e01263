"""Seeded inputs: the road graph, rider pairs and weight updates.

Every input the service sees is generated here from the ``--seed``
argument, each family from its own stream, so the same seed gives the
same inputs however fast the program runs.  Vertices are addressed by
their index in the graph's insertion order; on the ``ROWS x COLS``
grid, vertex ``(r, c)`` has index ``r * COLS + c``.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple

import numpy as np

ROWS = COLS = 64
NUM_VERTICES = ROWS * COLS
#: Popular origin/destination pairs of the hot-pairs workload.
HOT_PAIR_COUNT = 2000
ZIPF_EXPONENT = 1.1
#: Trip lengths of popular pairs, in blocks.  Rank ``k`` gets a fixed
#: length from a golden-ratio sequence over this range, so the
#: popularity-weighted trip length is the same for every seed and only
#: the trips' places vary.
HOT_HOPS = (8, 96)
_GOLDEN = (5 ** 0.5 - 1) / 2
#: Every SELF_EVERY-th rider asks for the distance from a vertex to itself.
SELF_EVERY = 100
_CHUNK = 4096

#: One rush-hour cycle: a full epoch refresh, riders, three rider batches and
#: a check, then one regional update and the same again.  The relay
#: tenant can re-spend once per epoch, so a cycle holds exactly one
#: ``refresh_shard``, after its ``refresh``.
CYCLE_QUERIES = 200
CYCLE_PLAN: Tuple[Tuple[str, int], ...] = (
    ("refresh", 1),
    ("query", CYCLE_QUERIES),
    ("batch", 3),
    ("verify", 1),
    ("refresh_shard", 1),
    ("query", CYCLE_QUERIES),
    ("batch", 3),
    ("verify", 1),
)


def stream(seed: int, label: str) -> np.random.Generator:
    """An independent, reproducible generator for one input family."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def road_graph(seed: int):
    """The 64x64 grid road network whose weights the seed draws."""
    from repro import Rng
    from repro.workloads.traffic import grid_road_network

    return grid_road_network(ROWS, COLS, Rng(seed)).graph


def edge_endpoints(graph) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex indices of both endpoints of every edge, aligned with
    ``graph.edge_list()``."""
    index = {v: i for i, v in enumerate(graph.vertices())}
    edges = graph.edge_list()
    u = np.fromiter((index[a] for a, _ in edges), np.int64, len(edges))
    v = np.fromiter((index[b] for _, b in edges), np.int64, len(edges))
    return u, v


def hot_pair_table(seed: int) -> np.ndarray:
    """The popular pairs, most popular first, as ``(P, 2)`` indices
    with the lower index first."""
    gen = stream(seed, "hot-pairs")
    lo, hi = HOT_HOPS
    ranks = np.arange(1, HOT_PAIR_COUNT + 1)
    hops = lo + np.floor((ranks * _GOLDEN) % 1.0 * (hi - lo + 1))
    pairs = np.empty((HOT_PAIR_COUNT, 2), dtype=np.int64)
    for k, h in enumerate(hops.astype(int)):
        while True:
            r, c = (int(x) for x in gen.integers(0, ROWS, size=2))
            dr = int(gen.integers(max(0, h - (COLS - 1)), min(h, ROWS - 1) + 1))
            sr, sc = (int(x) for x in gen.choice((-1, 1), size=2))
            r2, c2 = r + sr * dr, c + sc * (h - dr)
            if 0 <= r2 < ROWS and 0 <= c2 < COLS:
                break
        a, b = r * COLS + c, r2 * COLS + c2
        pairs[k] = (min(a, b), max(a, b))
    return pairs


def zipf_weights(n: int) -> np.ndarray:
    """Probabilities proportional to ``rank ** -ZIPF_EXPONENT``."""
    weights = np.arange(1, n + 1, dtype=float) ** -ZIPF_EXPONENT
    return weights / weights.sum()


class PairStream:
    """An endless, reproducible stream of rider pairs.

    With a ``table`` the riders pick its rows by Zipf popularity;
    without one they pick uniform vertex pairs.  Pairs come with the
    lower index first, and every :data:`SELF_EVERY`-th rider asks for
    ``s == t``.
    """

    def __init__(self, seed: int, label: str, table: np.ndarray | None = None):
        self._gen = stream(seed, label)
        self._table = table
        self._p = None if table is None else zipf_weights(len(table))
        self._drawn = 0
        self._buffer = np.empty((0, 2), dtype=np.int64)

    def _refill(self) -> None:
        if self._table is None:
            pairs = np.sort(
                self._gen.integers(0, NUM_VERTICES, size=(_CHUNK, 2)), axis=1
            )
        else:
            ranks = self._gen.choice(len(self._table), size=_CHUNK, p=self._p)
            pairs = self._table[ranks]
        position = self._drawn + np.arange(_CHUNK)
        same = position % SELF_EVERY == SELF_EVERY - 1
        pairs[same, 1] = pairs[same, 0]
        self._drawn += _CHUNK
        self._buffer = np.concatenate([self._buffer, pairs])

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` pairs as an ``(n, 2)`` index array."""
        while len(self._buffer) < n:
            self._refill()
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


def edge_midpoints(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Grid (column, row) coordinates of every edge's midpoint."""
    return (u % COLS + v % COLS) / 2.0, (u // COLS + v // COLS) / 2.0


def epoch_weights(
    seed: int, base: np.ndarray, midpoints: Tuple[np.ndarray, np.ndarray], epoch: int
) -> np.ndarray:
    """A full epoch's travel times: city-wide congestion of up to 50%
    plus a 3x rush-hour hot-spot of radius ROWS/4.

    The hot-spot circles downtown, a quarter of the city from its
    centre, one golden-angle step per epoch, within 2 blocks of seeded
    jitter: where it sits changes every trip's length, so a fixed route
    keeps the mean trip length alike across seeds."""
    gen = stream(seed, f"epoch-{epoch}")
    congestion = 1.0 + 0.5 * gen.random(len(base))
    angle = 2 * np.pi * _GOLDEN * epoch
    cx = (COLS - 1) / 2 + COLS / 4 * np.cos(angle) + gen.uniform(-2, 2)
    cy = (ROWS - 1) / 2 + ROWS / 4 * np.sin(angle) + gen.uniform(-2, 2)
    x, y = midpoints
    inside = np.hypot(x - cx, y - cy) <= ROWS / 4
    slowdown = np.where(inside, 3.0 * gen.uniform(0.9, 1.1, len(base)), 1.0)
    return base * congestion * slowdown


def regional_weights(
    seed: int, current: np.ndarray, region: np.ndarray, update: int
) -> np.ndarray:
    """A regional congestion update: edges in the ``region`` mask slow
    down by up to 2x; every other edge keeps its current time."""
    gen = stream(seed, f"regional-{update}")
    return current * np.where(region, 1.0 + gen.random(len(current)), 1.0)


def quadrant_region(u: np.ndarray, v: np.ndarray, quadrant: int) -> np.ndarray:
    """Edges with both endpoints in one grid quadrant (0..3)."""
    def quad(i: np.ndarray) -> np.ndarray:
        return (i // COLS >= ROWS // 2) * 2 + (i % COLS >= COLS // 2)

    return (quad(u) == quadrant) & (quad(v) == quadrant)


def shard_region(plan, vertices: Sequence, u: np.ndarray, v: np.ndarray, shard: int) -> np.ndarray:
    """Edges with both endpoints in one shard of a public shard plan."""
    owner = np.fromiter((plan.shard_of(x) for x in vertices), np.int64, len(vertices))
    return (owner[u] == shard) & (owner[v] == shard)


def cycle_kinds(cycles: int) -> List[str]:
    """The operation kinds of ``cycles`` rush-hour cycles, in order."""
    return [kind for _ in range(cycles) for kind, n in CYCLE_PLAN for _ in range(n)]
