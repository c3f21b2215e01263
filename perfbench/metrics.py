"""The benchmark's metric catalog: name, unit and better direction.

``BENCHMARK.json`` lists the same metrics; a test keeps them equal.
"""

from __future__ import annotations

from .trace import LAYERS

#: What a user of the service sees; every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("batch_us_per_pair", "us", "lower"),
    ("refresh_s", "s", "lower"),
    ("refresh_shard_s", "s", "lower"),
    ("mae", "min", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Operation kinds whose traced time the ``share.*`` metrics split by layer.
OP_KINDS = ("setup", "query", "batch", "refresh", "refresh_shard")

#: Single layers, from the traced run.
PER_LAYER = (
    ("service.query_self_us", "us", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("batching.self_us_per_pair", "us", "lower"),
    ("batching.unique_ratio", "ratio", "lower"),
    ("sharding.legs_per_miss", "count", "lower"),
    ("sharding.query_self_us", "us", "lower"),
    ("sharding.refresh_shard_self_s", "s", "lower"),
    ("synopsis.distance_calls", "count", "lower"),
    ("synopsis.distance_us", "us", "lower"),
    ("ledger.spends", "count", "lower"),
    ("ledger.refused", "count", "lower"),
    ("mechanisms.builds", "count", "lower"),
    ("mechanisms.build_s", "s", "lower"),
    ("apsp.hub_build_s", "s", "lower"),
    ("apsp.estimate_calls", "count", "lower"),
    ("apsp.estimate_us", "us", "lower"),
    ("apsp.clamped_share", "ratio", "lower"),
    ("engine.sweep_calls", "count", "lower"),
    ("engine.sweep_rows", "count", "lower"),
    ("engine.sweep_s", "s", "lower"),
    ("engine.matrix_mb", "MB", "lower"),
    ("engine.csr_compile_s", "s", "lower"),
    ("rng.laplace_draws", "count", "lower"),
    ("rng.laplace_s", "s", "lower"),
    ("graphs.reweight_s", "s", "lower"),
    ("telemetry.us_per_query", "us", "lower"),
    ("telemetry.share", "ratio", "lower"),
    ("telemetry.flight_captures", "count", "lower"),
    ("telemetry.audit_records", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
) + tuple(
    (f"share.{kind}.{layer}", "ratio", "lower") for kind in OP_KINDS for layer in LAYERS
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
