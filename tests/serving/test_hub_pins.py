"""Seeded hub releases, pinned by digest.

How the hub structure stores its local-ball table is free to change;
what a seeded service releases is not.  Each digest below hashes one
release of a 12x12 road grid: the ``to_json()`` of a forced hub-set
and a forced hub-bounded synopsis, and, at 4 shards, the relay's hub
table and its ball table bucketed by shard pair.  They were recorded
while the ball table was still a dict keyed by pair.  At eps = 1e6 the
answers sit far from the clamp at 0, so a changed released value
changes a digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Rng
from repro.serving import DistanceService
from repro.telemetry import NULL_TELEMETRY
from repro.workloads import grid_road_network

EPS = 1e6
SEED = 2604

SYNOPSIS_DIGESTS = {
    "hub-set": (
        "7d73fe500bf874f257c145dca430ca953f7cadae712c3e1923e5d743c4ce5bfc"
    ),
    "hub-bounded": (
        "192276f6c1e5377a91f4986f82d8b46208fa71c6571edabcf853adf6faf623cf"
    ),
}
RELAY_MATRIX_DIGEST = (
    "415985b1ef357674c019bf71e3cd92ea167f53754cfd3cf43c8b435b47f40886"
)
RELAY_BUCKETS_DIGEST = (
    "84b80f0d21912f2fc970ca71a0403824d93ba44db8ad5e33e217f483f11e67fc"
)


def _service(**kwargs) -> DistanceService:
    graph = grid_road_network(12, 12, Rng(26)).graph
    return DistanceService(
        graph, EPS, Rng(SEED), telemetry=NULL_TELEMETRY, **kwargs
    )


def _digest(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


@pytest.mark.parametrize("mechanism", sorted(SYNOPSIS_DIGESTS))
def test_synopsis_json_is_pinned(mechanism):
    extra = {"weight_bound": 3.0} if mechanism == "hub-bounded" else {}
    service = _service(mechanism=mechanism, **extra)
    assert service.mechanism == mechanism
    text = service.synopsis.to_json()
    assert json.loads(text)["ball"]
    assert _digest(text.encode()) == SYNOPSIS_DIGESTS[mechanism]


def test_relay_release_is_pinned():
    router = _service(mechanism="hub-set", shards=4)._shards
    assert router.relay.ball_values.size
    assert _digest(router.relay.matrix.tobytes()) == RELAY_MATRIX_DIGEST
    buckets = router._relay_ball_cross
    assert _digest(
        *(
            repr(pair).encode() + b"".join(a.tobytes() for a in buckets[pair])
            for pair in sorted(buckets)
        )
    ) == RELAY_BUCKETS_DIGEST
