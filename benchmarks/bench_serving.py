"""E16 — the serving engine: queries/sec and error vs eps.

Stands up a :class:`repro.serving.DistanceService` over a rush-hour
grid road network and replays a batch of rider queries per epsilon.
Two things to check:

* throughput (queries/sec) is flat in eps — serving is dictionary
  lookups over the synopsis, independent of how noisy it is;
* mean absolute error falls as eps grows — the synopsis noise scale
  is ``~pairs/eps``, so quadrupling eps should cut error ~4x.

Every batch is served from a single per-epoch synopsis: the ledger
records exactly one spend no matter how many queries are answered.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")  # allow `python benchmarks/bench_*.py`

from benchmarks.common import fresh_rng, parse_rows, print_experiment
from repro import ServingConfig, serve
from repro.analysis import render_table
from repro.serving import replay_rush_hour
from repro.workloads import grid_road_network

EPS_VALUES = [0.25, 1.0, 4.0]
ROWS = COLS = 8
QUERIES = 2000

def _ci90_half_width(eps: float) -> float:
    """The advertised 90% interval half-width of one estimate served
    on the E16 road grid at this eps — the Estimate API's accuracy
    disclosure, straight off the declarative serving path."""
    rng = fresh_rng(165)
    network = grid_road_network(ROWS, COLS, rng)
    service = serve(network.graph, ServingConfig(eps=eps), rng)
    estimate = service.estimate((0, 0), (ROWS - 1, COLS - 1))
    return estimate.margin(0.90)


def run_experiment() -> str:
    rows = []
    for i, eps in enumerate(EPS_VALUES):
        report = replay_rush_hour(
            fresh_rng(160 + i),
            ServingConfig(eps=eps),
            rows=ROWS,
            cols=COLS,
            epochs=1,
            queries_per_epoch=QUERIES,
        )
        rows.append(
            [
                eps,
                report.mechanism,
                report.total_queries,
                round(report.queries_per_second),
                report.ledger_spends,
                report.mean_abs_error,
                report.max_abs_error,
                _ci90_half_width(eps),
            ]
        )
    return render_table(
        [
            "eps",
            "mechanism",
            "queries",
            "queries/sec",
            "spends",
            "mean abs err",
            "max abs err",
            "ci90 half-width",
        ],
        rows,
        title=(
            f"E16  Serving engine on a {ROWS}x{COLS} rush-hour grid, "
            f"{QUERIES} queries/epoch.\n"
            "Expected shape: error ~ 1/eps, and the Estimate API's "
            "advertised 90% interval tracks it; throughput flat; one "
            "budget spend per epoch."
        ),
    )


def check(table: str) -> None:
    rows = parse_rows(table)
    # One ledger spend per epoch regardless of batch size.
    assert all(int(r[4]) == 1 for r in rows)
    # Positive throughput reported.
    assert all(float(r[3]) > 0 for r in rows)
    # Error shrinks as eps grows (16x eps spread is far beyond the
    # sampling noise of a 2016-pair synopsis).
    assert float(rows[0][5]) > float(rows[-1][5])
    # The advertised interval is nonzero and scales exactly as 1/eps
    # (the all-pairs scale is pairs/eps and the quantile is linear in
    # the scale).
    assert all(float(r[7]) > 0 for r in rows)
    assert float(rows[0][7]) > float(rows[-1][7])


if __name__ == "__main__":
    print_experiment(run_experiment())
