"""Serving benchmark for the private distance service.

Run it from the repository root::

    python3 perfbench/run.py --workload hot-pairs --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
traced run.
"""
