"""The experiment checks that ``benchmarks/run_all.py`` gates on.

No experiment runs here.  Each check is fed the table its experiment
last recorded in the committed ``BENCH_runall.json``, re-rendered from
the report's rows: the check must accept it as recorded, and must
reject it once a cell is moved past one prediction that check guards
(a bound exceeded, a baseline no longer beaten, a growth rate no
longer polylog).  A check that stopped asserting one of the paper's
predictions would let the matching tampered table through.
"""

from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import pytest

from benchmarks import bench_engine, run_all
from benchmarks.common import SEED, parse_rows
from repro.analysis import render_table

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_runall.json"
REPORT = json.loads(REPORT_PATH.read_text())
MODULES = dict(run_all.EXPERIMENTS)


def _rows(tag):
    return copy.deepcopy(REPORT["experiments"][tag]["rows"])


def _render(rows):
    """A table that ``parse_rows`` reads back as the given rows."""
    cells = [[str(cell) for cell in row] for row in rows]
    table = render_table([f"c{i}" for i in range(len(cells[0]))], cells)
    assert parse_rows(table) == cells
    return table


def test_committed_report_holds_only_module_and_rows():
    assert set(REPORT) == {"seed", "experiments"}
    assert REPORT["seed"] == SEED
    assert list(REPORT["experiments"]) == list(MODULES)
    for tag, entry in REPORT["experiments"].items():
        assert set(entry) == {"module", "rows"}, tag
        assert entry["module"] == MODULES[tag].__name__, tag


@pytest.mark.parametrize("tag", list(MODULES))
def test_committed_report_passes_its_check(tag):
    MODULES[tag].check(_render(_rows(tag)))


# "<tag>-<prediction broken>": (row, column, new cell computed from the
# recorded rows t).  Each new cell moves the table just past one
# assertion of the tag's check and no other.  Rows are in the order the
# experiment renders them.
BROKEN = {
    "E1-basic-error-grows-no-faster-than-advanced":
        (-1, 2, lambda t: 0.5 * t[0][2] * t[-1][3] / t[0][3]),
    "E2-worst-error-above-thm-4.1": (0, 4, lambda t: t[0][5] + 1),
    # E2: random trees V=32..2048 first.
    "E2-random-tree-error-grows-past-polylog": (3, 3, lambda t: 6 * t[0][3]),
    # E3: paths V=256, 1024, 4096, then random trees.
    "E3-path-ratio-to-baseline-does-not-improve":
        (0, 2, lambda t: 0.99 * t[0][3] * t[2][2] / t[2][3]),
    "E3-baseline-wins-at-largest-path": (2, 2, lambda t: 1.01 * t[2][3]),
    "E3-bound-no-better-than-baseline-at-largest-path":
        (2, 4, lambda t: 1.01 * t[2][5]),
    "E3-bound-and-baseline-bound-in-different-units":
        (3, 4, lambda t: 10 * t[3][5]),
    "E4-hub-and-alg1-an-order-of-magnitude-apart":
        (1, 1, lambda t: 10 * t[1][2]),
    "E4-hub-error-grows-past-polylog": (-1, 1, lambda t: 6 * t[0][1]),
    # E5: V=64, 144, 256 at M=1 first.
    "E5-covering-larger-than-v-over-k-plus-1": (0, 3, lambda t: 8),
    "E5-measured-error-above-bound-4.5": (0, 4, lambda t: t[0][7] + 1),
    "E5-bound-no-better-than-baseline-bound": (0, 7, lambda t: t[0][8]),
    "E5-bound-grows-linearly-in-v": (2, 7, lambda t: 3 * t[0][7]),
    "E5-approx-noise-no-better-than-pure": (2, 4, lambda t: t[2][5]),
    "E6-error-above-thm-4.7": (1, 3, lambda t: t[1][5] + 1),
    "E6-error-grows-past-cube-root": (-1, 3, lambda t: 3 * t[0][3]),
    "E7-error-does-not-grow-with-hops": (-1, 2, lambda t: t[0][2]),
    "E7-max-error-above-thm-5.5": (2, 3, lambda t: t[2][5] + 1),
    # E8: the exact solver, then eps=0.05 upwards.
    "E8-exact-solver-misreconstructs": (0, 1, lambda t: 0.01),
    "E8-dp-release-beats-alpha": (1, 2, lambda t: 0.5 * t[1][3]),
    "E8-hamming-below-per-bit-floor": (1, 1, lambda t: 0.5 * t[1][4]),
    "E8-reconstruction-does-not-improve-with-eps":
        (-1, 1, lambda t: t[1][1]),
    # E9 and E10: the upper-bound rows, then the gadget.
    "E9-max-error-above-thm-b.3": (0, 2, lambda t: t[0][3] + 1),
    "E9-star-gadget-beats-alpha": (-1, 1, lambda t: 0.5 * t[-1][3]),
    "E10-max-error-above-thm-b.6": (0, 2, lambda t: t[0][3] + 1),
    "E10-hourglass-gadget-beats-alpha": (-1, 1, lambda t: 0.5 * t[-1][3]),
    "E11-measured-ratio-past-the-cap": (0, 2, lambda t: 1.1 * t[0][3]),
    # E12: units 1, 0.1, 1/V.
    "E12-unit-1-over-v-error-above-unit-0.1": (2, 1, lambda t: 2 * t[1][1]),
    "E12-error-ratio-past-linear-band": (0, 1, lambda t: 100 * t[1][1]),
    "E12-max-error-above-scaled-bound": (1, 2, lambda t: t[1][3] + 1),
    "E13-error-grows-past-polylog": (0, 1, lambda t: 1.0),
    "E13-baseline-wins-at-largest-cycle": (-1, 2, lambda t: t[-1][1]),
    "E13-error-above-doubled-tree-bound": (1, 1, lambda t: t[1][3] + 1),
    # E14: (E, M, tau) = (4, 1, 0.5), (5, 1, 0.5), (4, 2, 0.5), (4, 1, 0.25).
    "E14-five-edge-candidate-count-not-3-to-the-5":
        (1, 3, lambda t: 3**5 - 1),
    "E14-four-edge-candidate-count-not-3-to-the-4":
        (0, 3, lambda t: 3**4 - 1),
    "E14-finer-grid-no-more-candidates": (3, 3, lambda t: t[0][3]),
    "E14-error-past-trivial-max-distance":
        (0, 4, lambda t: t[0][0] * t[0][1] + 1),
    "E15-meir-moon-covering-past-lemma-4.4-cap": (0, 2, lambda t: t[0][1] + 1),
    "E15-smaller-greedy-covering-with-larger-noise":
        (0, 5, lambda t: t[0][4] + 1),
    "E15-smaller-meir-moon-covering-with-larger-noise":
        (3, 3, lambda t: t[3][2] + 1),
    "E16-two-spends-in-one-epoch": (1, 4, lambda t: 2),
    "E16-zero-throughput": (1, 3, lambda t: 0),
    "E16-error-does-not-shrink-with-eps": (-1, 5, lambda t: t[0][5]),
    "E16-zero-width-interval": (1, 7, lambda t: 0),
    "E16-interval-does-not-shrink-with-eps": (-1, 7, lambda t: t[0][7]),
    "E17-an-implementation-disagrees": (2, 3, lambda t: "False"),
    # E18: per graph (grid, sparse ER, road-like), the rows basic,
    # advanced, hub-set pure, hub-set approx.
    "E18-pure-hub-error-not-below-basic": (6, 5, lambda t: t[4][5]),
    "E18-approx-hub-error-not-below-basic": (7, 5, lambda t: t[4][5]),
    "E18-hub-releases-as-many-pairs-as-basic": (2, 3, lambda t: t[0][3]),
    "E18-advanced-composition-no-better-than-pure":
        (11, 4, lambda t: t[10][4]),
    # E19: unsharded, then sharded.
    "E19-regional-refresh-no-cheaper-than-rebuild": (1, 2, lambda t: t[0][2]),
    "E19-cross-shard-error-past-3x-unsharded":
        (1, 4, lambda t: 3 * t[0][4] + 1),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_check_rejects_broken_prediction(case):
    tag = case.split("-")[0]
    row, column, cell = BROKEN[case]
    rows = _rows(tag)
    rows[row][column] = cell(rows)
    assert rows != _rows(tag)
    with pytest.raises(AssertionError):
        MODULES[tag].check(_render(rows))


def _slow_csr_sweep():
    rows = _rows("E17")
    assert rows[1][0] == "CSR sweep"
    rows[1][2] = 0.9 * bench_engine.REQUIRED_SPEEDUP
    return _render(rows)


def test_e17_speedup_bar_binds_with_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", types.ModuleType("scipy"))
    with pytest.raises(AssertionError):
        bench_engine.check(_slow_csr_sweep())


def test_e17_speedup_bar_waived_without_scipy(monkeypatch):
    # The scipy-free fallback is checked for exact agreement, not speed.
    monkeypatch.setitem(sys.modules, "scipy", None)
    bench_engine.check(_slow_csr_sweep())
