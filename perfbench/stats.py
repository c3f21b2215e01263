"""Tail sample counts for the benchmark's latency metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: The tail percentile every latency metric reports.
TAIL_PERCENTILE = 99.0
#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile
    (numpy's linear interpolation)."""
    return int((np.asarray(values) > np.percentile(values, q)).sum())
