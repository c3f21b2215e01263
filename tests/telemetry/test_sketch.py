"""Accuracy and merge tests for the streaming quantile sketch
(:mod:`repro.telemetry.sketch`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry import QuantileSketch
from repro.telemetry.sketch import RELATIVE_ACCURACY

QUANTILES = (0.01, 0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999)


class TestAccuracy:
    @pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
    def test_within_one_rank_percentile_of_numpy(self, n):
        # The acceptance bar: every reported quantile sits within +-1
        # rank percentile of numpy.percentile on the same data (with
        # the sketch's own 0.1% value rounding as slack on top).
        rng = np.random.default_rng(20160626)
        values = rng.lognormal(mean=0.0, sigma=2.0, size=n)
        sketch = QuantileSketch()
        sketch.observe_many(values)
        slack = 2.0 * RELATIVE_ACCURACY
        for q in QUANTILES:
            estimate = sketch.quantile(q)
            lo = float(np.percentile(values, max(q - 0.01, 0.0) * 100.0))
            hi = float(np.percentile(values, min(q + 0.01, 1.0) * 100.0))
            assert lo * (1.0 - slack) <= estimate <= hi * (1.0 + slack), (
                f"q={q}: sketch={estimate}, "
                f"numpy band=[{lo}, {hi}] at +-1 rank percentile"
            )

    def test_scalar_and_vector_ingest_agree(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(scale=3.0, size=500)
        one_by_one = QuantileSketch()
        for v in values:
            one_by_one.observe(float(v))
        bulk = QuantileSketch()
        bulk.observe_many(values)
        for q in QUANTILES:
            assert one_by_one.quantile(q) == bulk.quantile(q)
        assert one_by_one.count == bulk.count == 500
        assert one_by_one.sum == pytest.approx(bulk.sum)

    def test_relative_error_bound_on_values(self):
        # Beyond rank accuracy, each estimate is within the sketch's
        # relative accuracy of *some* observed value's bucket.
        values = [0.001, 0.5, 1.0, 12.0, 4000.0]
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(v)
        for i, v in enumerate(values):
            assert sketch.quantile(i / (len(values) - 1)) == pytest.approx(
                v, rel=2.0 * RELATIVE_ACCURACY
            )

    def test_min_max_exact(self):
        sketch = QuantileSketch()
        sketch.observe_many([3.0, 1.0, 2.0])
        assert sketch.min == 1.0
        assert sketch.max == 3.0
        assert sketch.quantile(0.0) == 1.0
        # The top quantile falls through to the exact max.
        assert sketch.quantile(1.0) == 3.0


class TestEdgeCases:
    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert len(sketch) == 0
        assert sketch.count == 0
        assert np.isnan(sketch.quantile(0.5))

    def test_zeros_and_negatives_collapse_to_zero(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(-5.0)  # durations cannot be negative; clamp
        sketch.observe(1e-15)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0

    def test_invalid_quantile_rejected(self):
        from repro.exceptions import TelemetryError

        sketch = QuantileSketch()
        sketch.observe(1.0)
        with pytest.raises(TelemetryError):
            sketch.quantile(1.5)
        with pytest.raises(TelemetryError):
            sketch.quantile(-0.1)


class TestMerge:
    def test_merge_is_exact(self):
        # Merging sketches is lossless: the merged sketch equals one
        # built from the concatenated stream.
        rng = np.random.default_rng(99)
        a_vals = rng.lognormal(size=1000)
        b_vals = rng.exponential(size=1000)
        a = QuantileSketch()
        a.observe_many(a_vals)
        b = QuantileSketch()
        b.observe_many(b_vals)
        combined = QuantileSketch()
        combined.observe_many(np.concatenate([a_vals, b_vals]))
        a.merge(b)
        assert a.count == combined.count
        for q in QUANTILES:
            assert a.quantile(q) == combined.quantile(q)

    def test_merged_copy_leaves_inputs_alone(self):
        a = QuantileSketch()
        a.observe(1.0)
        b = QuantileSketch()
        b.observe(2.0)
        c = a.merged(b)
        assert c.count == 2
        assert a.count == 1
        assert b.count == 1
