"""Serving benchmark: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {hot-pairs,cold-sharded,rush-hour} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs the workload untraced, then repeats part of it on
a fresh server with every layer wrapped, and reports the per-layer
metrics; the span dump goes to ``.bench_out/``.  Diagnostics are
printed as ``#`` lines; the last line of standard output is the
result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every operation and check succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serving benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("hot-pairs", "cold-sharded", "rush-hour")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the library sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from perfbench import diag, speed, stats, trace
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import SETUP_REPEATS, WORKLOADS, Run, peak_rss_mb, per_layer

    steal = diag.steal_jiffies()
    probe = diag.cpu_probe_us()
    started = time.perf_counter()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, log=sys.stderr)
    run.drive(1 if args.trace else SETUP_REPEATS)
    rss = peak_rss_mb()
    timings = run.end_to_end()
    replayed = None
    if args.trace and run.service is not None:
        replayed = run.replay(run.traced_selection())
    run.discard()
    mae, clamped = run.answer_quality()
    digest, digested = run.digest()

    env = diag.environment()
    probe_end = diag.cpu_probe_us()
    steal_end = diag.steal_jiffies()
    stolen = steal_end - steal if steal is not None and steal_end is not None else None
    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} run_wall_s={time.perf_counter() - started:.1f}"
    )
    print(
        f"# env nproc={env['nproc']} cpu_count={env['cpu_count']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} steal_jiffies={stolen} "
        f"cpu_probe_us={probe:.1f}/{probe_end:.1f}"
    )
    for name, (value, samples, raw, wall) in timings.items():
        print(f"# {name:<18} {value:12.4f} {UNITS[name]:<3} samples={samples:<6} cpu={raw:.4f} wall={wall:.4f}")
    readings = run.meter.readings
    if readings:
        sweeps = [op.sweep_ns for op in run.ops if op.sweep_ns]
        print(f"# speed lookup readings={len(readings)} median_ns={int(np.median(readings))} nominal_ns={speed.LOOKUP_NS}; "
              f"sweep readings={2 * len(sweeps)} median_ns={int(np.median(sweeps))} nominal_ns={speed.SWEEP_NS}")
    latencies = [op.cpu_ns for op in run.timed("query")]
    tail = stats.beyond(latencies, stats.TAIL_PERCENTILE) if latencies else 0
    print(f"# {tail} point queries lie beyond p99" + (
        f" (warning: fewer than {stats.TAIL_SAMPLES})" if tail < stats.TAIL_SAMPLES else ""))
    print(f"# mae {mae:.4f} min; clamped share {clamped:.4f} of answers with s != t")
    print(f"# peak_rss_mb {rss:.1f} (read when the measured operations ended)")
    print(f"# answers sha256={digest} over the {digested} answers of the seeded probe batch")

    if args.trace:
        values = {}
        if replayed is not None:
            analysis, rec, extra = replayed
            values = per_layer(analysis, rec, extra, clamped)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{args.workload}-seed{args.seed}.json"
            calibration = [extra["calibration_inside_ns"], extra["calibration_outside_ns"]]
            meta = {"workload": args.workload, "seed": args.seed, "calibration_ns": calibration}
            trace.dump(str(path), analysis, rec, meta)
            for kind, layers in analysis.self_by_layer().items():
                total = analysis.op_totals()[kind][1] or 1
                top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
                print(f"# traced {kind:<13} " + ", ".join(f"{layer} {ns / total:.3f}" for layer, ns in top))
            by_kind = ", ".join(f"{k} {v:.3f}" for k, v in extra["overhead_by_kind"].items())
            print(f"# trace overhead share {extra['overhead_share']:.3f} ({by_kind}); median wrapper cost per span "
                f"{extra['calibration_inside_ns']} ns inside + {extra['calibration_outside_ns']} ns outside")
            print(f"# span dump {path.relative_to(ROOT)}")
        names = [name for name, _, _ in PER_LAYER]
    else:
        values = {name: value for name, (value, *_) in timings.items()}
        values["mae"] = mae
        values["peak_rss_mb"] = rss
        names = [name for name, _, _ in END_TO_END]
    missing = [name for name in names if name not in values]
    if missing:
        run.fail(f"no value for {', '.join(missing)}", len(missing))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values.get(name), "unit": UNITS[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
