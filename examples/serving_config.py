#!/usr/bin/env python
"""Declarative serving: one config document, one factory, rich answers.

Walks the redesigned serving API end to end:

1. describe a deployment as a ``ServingConfig`` and round-trip it
   through JSON (it is a public manifest — mechanism names, budgets,
   size knobs — never private data),
2. stand the server up with ``serve(graph, config, rng)``,
3. ask for rich ``Estimate`` answers — value, effective noise scale,
   Laplace confidence interval — instead of bare floats,
4. swap the same workload onto a sharded deployment by editing one
   config field (the consumer code does not change: there is one
   ``DistanceService`` front, ``shards`` only sets how many regional
   tenants sit behind it),
5. inspect the mechanism catalog the config names come from.

Run with:  python examples/serving_config.py
"""

from __future__ import annotations

from repro import (
    Rng,
    ServingConfig,
    available_mechanisms,
    get_mechanism,
    serve,
)
from repro.workloads import grid_road_network, uniform_pairs


def main() -> None:
    rng = Rng(seed=7)

    # ------------------------------------------------------------------
    # 1. The deployment manifest.  Every field is public; the JSON
    #    round trip is exact, so configs can be shipped and diffed.
    # ------------------------------------------------------------------
    config = ServingConfig(mechanism="auto", eps=1.0, cache_size=10_000)
    config = ServingConfig.from_json(config.to_json())
    print(f"deployment: {config}")

    # ------------------------------------------------------------------
    # 2. A 12x12 city grid with private travel times, served.
    # ------------------------------------------------------------------
    city = grid_road_network(12, 12, rng)
    service = serve(city.graph, config, rng)
    print(
        f"serving with {service.mechanism!r} "
        f"(one {service.epoch_budget} spend per epoch)"
    )

    # ------------------------------------------------------------------
    # 3. Rich estimates: the accuracy story travels with the answer.
    # ------------------------------------------------------------------
    estimate = service.estimate((0, 0), (11, 11))
    lo, hi = estimate.confidence_interval(0.90)
    print(
        f"corner-to-corner ETA: {estimate.value:.1f} min, "
        f"90% interval [{lo:.1f}, {hi:.1f}] "
        f"(Laplace scale {estimate.noise_scale:g})"
    )

    riders = uniform_pairs(city.graph, 5_000, rng)
    report = service.query_batch(riders)
    print(
        f"served {report.num_queries} rider queries "
        f"({report.num_unique} unique) from one synopsis; "
        f"ledger spends: {len(service.ledger.records())}"
    )

    # ------------------------------------------------------------------
    # 4. Scale out by editing the manifest, not the consumer.
    # ------------------------------------------------------------------
    sharded = serve(
        city.graph,
        config.with_overrides(shards=4, mechanism="hub-set"),
        rng,
    )
    estimate = sharded.estimate((0, 0), (11, 11))
    print(
        f"sharded ({sharded.mechanism}): same call surface, "
        f"value {estimate.value:.1f}, "
        f"composed scale {estimate.noise_scale:g}"
    )
    print(
        f"shared stats: {service.stats.num_queries} vs "
        f"{sharded.stats.num_queries} queries served"
    )

    # ------------------------------------------------------------------
    # 5. The catalog behind the config's mechanism names.
    # ------------------------------------------------------------------
    print(f"catalog mechanisms: {', '.join(available_mechanisms())}")
    hub = get_mechanism("hub-set")
    from repro.mechanisms import MechanismParams

    params = MechanismParams(budget=config.budget)
    print(
        "hub-set predicted per-entry noise scale on this city: "
        f"{hub.predicted_noise_scale(city.graph, params):.0f}"
    )


if __name__ == "__main__":
    main()
