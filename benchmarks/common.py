"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` module reproduces one experiment of the paper,
registered by tag in ``run_all.py`` (E1-E19).  Every module exposes:

* ``run_experiment(...) -> str`` — computes the paper-vs-measured table
  and returns it rendered;
* ``check(table)`` — asserts the shape the paper predicts on that
  table, raising ``AssertionError`` when it does not hold
  (``run_all.py`` runs every check and exits 1 on a failure);
* a ``__main__`` guard so ``python benchmarks/bench_xxx.py`` prints the
  table directly.

Experiments are deterministic: all randomness derives from SEED.
"""

from __future__ import annotations

from repro import Rng

SEED = 20160626  # PODS 2016 opening day; any constant works.

#: Number of repeated trials per experiment setting.  Small enough to
#: keep the whole harness under a few minutes, large enough for stable
#: means.
TRIALS = 5


def fresh_rng(offset: int = 0) -> Rng:
    """A reproducible generator for one experiment."""
    return Rng(SEED + offset)


def print_experiment(table: str) -> None:
    """Print a rendered experiment table with a separator."""
    print()
    print(table)
    print()


def parse_rows(table: str) -> list[list[str]]:
    """Parse the data rows out of a rendered experiment table.

    Data rows follow the dashed separator line; cells are recovered by
    splitting on runs of two or more spaces, so multi-word labels
    ("star gadget eps=0.1") survive while right-justified numeric
    columns split cleanly.  The checks and the report use this instead
    of ad-hoc string slicing.
    """
    import re

    lines = table.splitlines()
    separator_index = next(
        i
        for i, line in enumerate(lines)
        if line and set(line.strip()) <= {"-", " "}
    )
    rows = []
    for line in lines[separator_index + 1 :]:
        if not line.strip():
            continue
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows
