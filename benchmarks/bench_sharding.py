"""E19 — sharded serving vs one monolithic synopsis per epoch.

The ROADMAP's "sharded serving" rung, measured: a 4096-vertex
road-like network (64x64 grid road topology) served either by one
unsharded hub-set ``DistanceService`` or by a
``ShardedDistanceService`` with 4 regional tenants stitched together
through the boundary-hub relay of :mod:`repro.serving.sharding`.

Per configuration the table reports the initial epoch build time, the
cost of reacting to a congestion update — a *full* epoch rebuild for
the unsharded service versus a *single-shard* regional refresh
(``refresh_shard``: one ``V/k``-vertex tenant rebuild plus the relay
table) for the sharded one — and the empirical mean absolute error on
a fixed query sample split into intra-shard and cross-shard pairs (the
split uses the shard plan for both services, so the columns compare
like for like).

Expected shape: the regional refresh is several times cheaper than
the full rebuild (the whole point of sharding — a regional update no
longer pays a city-wide synopsis), while at eps = 1 every mechanism
here is noise-dominated, so the clamp-at-zero hub estimators on both
sides saturate at the mean true distance and the sharded cross-shard
error stays within a small constant factor of the unsharded release.

``python benchmarks/bench_sharding.py --quick`` runs a reduced
256-vertex instance — the CI smoke configuration.
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, ".")  # allow `python benchmarks/bench_sharding.py`

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro import ServingConfig, serve
from repro.algorithms.shortest_paths import all_pairs_dijkstra
from repro.analysis import render_table
from repro.workloads import grid_road_network, uniform_pairs

SIDE = 64  # 4096 vertices
QUICK_SIDE = 16  # 256 vertices
SHARDS = 4
EPS = 1.0
QUERY_SAMPLE = 500
REGIONAL_SLOWDOWN = 1.25


def _mean_abs_errors(service, pairs, exact):
    """(intra MAE, cross MAE) for a service over a classified sample."""
    sums = {"intra": 0.0, "cross": 0.0}
    counts = {"intra": 0, "cross": 0}
    for (s, t, kind), truth in zip(pairs, exact):
        sums[kind] += abs(service.query(s, t) - truth)
        counts[kind] += 1
    return (
        sums["intra"] / max(counts["intra"], 1),
        sums["cross"] / max(counts["cross"], 1),
    )


def run_experiment(quick: bool = False) -> str:
    side = QUICK_SIDE if quick else SIDE
    network = grid_road_network(side, side, fresh_rng(210))
    graph = network.graph

    # Both configurations come off the one declarative serving path;
    # sharded vs unsharded is a config field, not a code path.
    start = time.perf_counter()
    unsharded = serve(
        graph,
        ServingConfig(mechanism="hub-set", eps=EPS),
        fresh_rng(211),
    )
    t_build_unsharded = time.perf_counter() - start

    start = time.perf_counter()
    sharded = serve(
        graph,
        ServingConfig(mechanism="hub-set", eps=EPS, shards=SHARDS),
        fresh_rng(212),
    )
    t_build_sharded = time.perf_counter() - start
    plan = sharded.plan

    # Error sample on the initial epoch, classified by the shard plan
    # so both services are measured on identical intra/cross pairs.
    raw_pairs = uniform_pairs(graph, QUERY_SAMPLE, fresh_rng(213))
    pairs = [
        (
            s,
            t,
            "intra" if plan.shard_of(s) == plan.shard_of(t) else "cross",
        )
        for s, t in raw_pairs
    ]
    sweep = all_pairs_dijkstra(
        graph, sources=list(dict.fromkeys(s for s, _, _ in pairs))
    )
    exact = [sweep[s][t] for s, t, _ in pairs]
    un_intra, un_cross = _mean_abs_errors(unsharded, pairs, exact)
    sh_intra, sh_cross = _mean_abs_errors(sharded, pairs, exact)

    # Reaction to a congestion update: the unsharded service pays a
    # full epoch rebuild; the sharded one refreshes only the affected
    # region (shard 0) plus the relay table.
    full_weights = {
        e: w * REGIONAL_SLOWDOWN for e, w in graph.weights().items()
    }
    start = time.perf_counter()
    unsharded.refresh(graph.with_weights(full_weights))
    t_full_rebuild = time.perf_counter() - start

    regional_weights = graph.weights()
    for (u, v), w in list(regional_weights.items()):
        if plan.shard_of(u) == plan.shard_of(v) == 0:
            regional_weights[(u, v)] = w * REGIONAL_SLOWDOWN
    start = time.perf_counter()
    sharded.refresh_shard(0, regional_weights)
    t_shard_refresh = time.perf_counter() - start

    rows = [
        [
            "unsharded hub-set",
            t_build_unsharded,
            t_full_rebuild,
            un_intra,
            un_cross,
            "-",
        ],
        [
            f"sharded k={SHARDS} + relay",
            t_build_sharded,
            t_shard_refresh,
            sh_intra,
            sh_cross,
            sharded.relay.num_sites,
        ],
    ]
    speedup = t_full_rebuild / max(t_shard_refresh, 1e-9)
    return render_table(
        [
            "configuration",
            "build s",
            "refresh s",
            "intra MAE",
            "cross MAE",
            "boundary",
        ],
        rows,
        title=(
            f"E19  Sharded serving vs one monolithic synopsis: "
            f"{side}x{side} road grid (V={side * side}), eps={EPS}, "
            f"{SHARDS} shards, {QUERY_SAMPLE} sampled queries.\n"
            "'refresh s' is a full epoch rebuild for the unsharded "
            "row and a single-shard regional refresh (one tenant + "
            "the boundary-hub relay) for the sharded row: "
            f"{speedup:.1f}x cheaper here.\n"
            "Both rows answer the identical intra/cross pair sample; "
            "at eps=1 both estimators are noise-dominated, so the "
            "cross-shard error stays within a small factor of the "
            "unsharded release."
        ),
        precision=3,
    )


def check(table: str) -> None:
    rows = parse_rows(table)
    assert len(rows) == 2
    by_config = {r[0]: r for r in rows}
    unsharded = by_config["unsharded hub-set"]
    sharded = by_config[f"sharded k={SHARDS} + relay"]
    # The acceptance bar: a regional refresh is measurably cheaper
    # than the full unsharded epoch rebuild...
    assert float(sharded[2]) < float(unsharded[2])
    # ...while the cross-shard error stays within a small constant
    # factor of the unsharded hub-set release on the same pairs.
    assert float(sharded[4]) <= 3.0 * float(unsharded[4])


if __name__ == "__main__":
    print_experiment(run_experiment(quick="--quick" in sys.argv[1:]))
