#!/usr/bin/env python
"""Render and check every experiment table (E1-E19) in one run.

Usage:  python benchmarks/run_all.py [E5 E19 ...] [> tables.txt]

Each ``benchmarks/bench_*.py`` module reproduces one experiment of the
paper: ``run_experiment()`` renders its table, and ``check(table)``
asserts the shape the paper predicts (measured error within a
theorem's bound, a lower bound met, a baseline beaten).  This script
renders each table once, prints it, and runs its check; it exits 1
naming every tag whose check failed.  The run is deterministic (seed
in benchmarks/common.py).

A full run also writes ``BENCH_runall.json`` to the working directory,
``{seed, experiments: {tag: {module, rows}}}``, holding every data row
of every table with numeric cells as numbers.  A filtered run never
rewrites it.  Timing the service is perfbench's job, not this one's.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, ".")

from benchmarks import (
    bench_apsp_improved,
    bench_bounded_weight,
    bench_covering_ablation,
    bench_cycle,
    bench_engine,
    bench_histogram,
    bench_distance_oracle,
    bench_grid,
    bench_lower_bound_paths,
    bench_matching,
    bench_mst,
    bench_path_hierarchy,
    bench_privacy_validation,
    bench_private_paths,
    bench_scaling,
    bench_serving,
    bench_sharding,
    bench_tree_all_pairs,
    bench_tree_single_source,
)
from benchmarks.common import SEED, parse_rows

EXPERIMENTS = [
    ("E1", bench_distance_oracle),
    ("E2", bench_tree_single_source),
    ("E3", bench_tree_all_pairs),
    ("E4", bench_path_hierarchy),
    ("E5", bench_bounded_weight),
    ("E6", bench_grid),
    ("E7", bench_private_paths),
    ("E8", bench_lower_bound_paths),
    ("E9", bench_mst),
    ("E10", bench_matching),
    ("E11", bench_privacy_validation),
    ("E12", bench_scaling),
    ("E13", bench_cycle),
    ("E14", bench_histogram),
    ("E15", bench_covering_ablation),
    ("E16", bench_serving),
    ("E17", bench_engine),
    ("E18", bench_apsp_improved),
    ("E19", bench_sharding),
]

REPORT_PATH = Path("BENCH_runall.json")


def _coerce(cell: str) -> object:
    """Parse a table cell back into a number where possible, so the
    JSON report carries metrics as numbers rather than strings."""
    for parser in (int, float):
        try:
            return parser(cell)
        except ValueError:
            continue
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "only",
        nargs="*",
        metavar="TAG",
        help="experiment tags to run (default: all); a filtered run "
        "never rewrites the report",
    )
    args = parser.parse_args(argv)
    only = set(args.only)
    unknown = only - {tag for tag, _ in EXPERIMENTS}
    if unknown:
        parser.error(f"unknown tags: {', '.join(sorted(unknown))}")
    if not __debug__:
        parser.error("the checks are assert statements; run without -O")
    report: dict = {"seed": SEED, "experiments": {}}
    failed = []
    for tag, module in EXPERIMENTS:
        if only and tag not in only:
            continue
        print(f"==== {tag} " + "=" * 60)
        table = module.run_experiment()
        print(table)
        print()
        try:
            module.check(table)
        except Exception:
            # Keep going: one run reports every failed table.
            print(f"{tag} check failed:", file=sys.stderr)
            traceback.print_exc()
            failed.append(tag)
        report["experiments"][tag] = {
            "module": module.__name__,
            "rows": [[_coerce(c) for c in row] for row in parse_rows(table)],
        }
    if only:
        print(
            f"filtered run ({', '.join(sorted(only))}); "
            f"not rewriting {REPORT_PATH}",
            file=sys.stderr,
        )
    else:
        REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(
            f"wrote {REPORT_PATH} ({len(report['experiments'])} experiments)",
            file=sys.stderr,
        )
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
