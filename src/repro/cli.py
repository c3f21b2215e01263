"""Command-line interface: run the paper's releases on graph files.

Usage (after installing the package)::

    python -m repro.cli paths --graph city.json --eps 1.0 --gamma 0.05 \
        --out released.json
    python -m repro.cli distance --graph city.json --eps 1.0 \
        --source 0 --target 14
    python -m repro.cli tree-distances --graph net.json --eps 1.0 --root 0
    python -m repro.cli mst --graph net.json --eps 1.0 --out tree.json
    python -m repro.cli info --graph net.json
    python -m repro.cli serve --graph city.json --eps 1.0 \
        --pairs 0:14 3:9 --synopsis-out synopsis.json
    python -m repro.cli serve --graph city.json --config serving.json \
        --pairs 0:14 --estimate --level 0.9
    python -m repro.cli simulate --rows 12 --cols 12 --eps 1.0 \
        --epochs 2 --queries 500 --seed 0
    python -m repro.cli simulate --rows 8 --cols 8 --eps 1.0 --seed 0 \
        --metrics-out metrics.json
    python -m repro.cli metrics --in metrics.json --format prom
    python -m repro.cli metrics --in metrics.json --tenant distance-service
    python -m repro.cli simulate --rows 8 --cols 8 --eps 1.0 --seed 0 \
        --epochs 3 --audit-log audit.jsonl --metrics-out metrics.json
    python -m repro.cli audit tail --log audit.jsonl -n 5
    python -m repro.cli audit verify --log audit.jsonl --metrics metrics.json
    python -m repro.cli audit replay --log audit.jsonl
    python -m repro.cli report --in metrics.json --rules alerts.json
    python -m repro.cli simulate --rows 8 --cols 8 --eps 1.0 --seed 0 \
        --profile-out profile.json --flight-out flight.json \
        --flight-threshold 0.001 --event-log events.jsonl
    python -m repro.cli profile --in profile.json --check
    python -m repro.cli profile --in profile.json --format collapsed
    python -m repro.cli flight --in flight.json -n 5
    python -m repro.cli lint
    python -m repro.cli lint --format json --out lint-report.json
    python -m repro.cli lint --paths src/repro/serving
    python -m repro.cli lint --strict-ignores

The ``serve`` and ``simulate`` subcommands speak the declarative
serving API: ``--config`` loads a
:class:`~repro.serving.config.ServingConfig` JSON document (explicit
flags override its fields on ``serve``), ``--estimate`` prints rich
estimates — value, effective noise scale, Laplace confidence
interval — instead of bare floats.  Both accept ``--metrics-out`` to
dump the run's telemetry snapshot (all metrics and spans, including
per-tenant budget gauges); the ``metrics`` subcommand reads such a
snapshot back and renders it as JSON or Prometheus text exposition,
or answers "how much budget does tenant X have left" directly with
``--tenant``.

``--audit-log`` on ``serve`` and ``simulate`` appends the run's
privacy audit trail — every budget spend, epoch rotation, synopsis
and relay build, and refresh — to a hash-chained JSONL file (see
:mod:`repro.telemetry.audit`).  The ``audit`` subcommand inspects such
a log: ``tail`` prints the last records, ``replay`` reconstructs the
per-tenant privacy odometer, and ``verify`` fail-closed checks the
hash chain and the recorded budget arithmetic (optionally
cross-checking a ``--metrics`` snapshot's gauges bit-exactly).  The
``report`` subcommand renders a status summary — budget positions,
latency quantiles, and alerts fired by a declarative ``--rules``
document (:mod:`repro.telemetry.monitor`) — exiting 1 when any alert
fires, so it slots into CI and cron health checks.

The ``lint`` subcommand runs :mod:`repro.privlint`, the repo's
AST-based privacy/determinism static analyzer, over ``src/repro``
(or ``--paths`` subsets, pre-commit style).  It exits 1 when any
finding is not suppressed by an inline ``privlint: ignore``
comment, which is the CI lint gate (``--strict-ignores`` also fails
it on ignores that suppress nothing); ``--format json`` emits the
versioned ``repro-lint`` report document.

Every ``repro-*`` document a subcommand reads — a graph, a serving
config, a snapshot, a profile, a flight dump, alert rules, an audit
log — is read fail-closed (:mod:`repro.documents`): malformed JSON,
a wrong format or version, or a missing field exits 2 with
``error: ...``.

``serve`` and ``simulate`` also take the observability flags of
:mod:`repro.telemetry.profile` and :mod:`repro.telemetry.logging`:
``--profile-out`` runs the deterministic phase profiler plus the
background stack sampler and dumps a versioned ``repro-profile``
document (phase attribution table + flamegraph.pl-compatible
collapsed stacks); ``--flight-out`` arms the slow-query flight
recorder (``--flight-threshold`` sets the fixed fallback while the
adaptive per-route p99 warms up) and dumps its exemplar ring;
``--event-log`` appends structured JSONL lifecycle events.  The
``profile`` and ``flight`` subcommands read those documents back —
``profile --check`` fail-closed verifies that per-phase self times
sum to the profiled wall clock.  All of it is purely observational:
seeded answers are bit-identical with every flag on or off.

Graphs are read from the JSON format of :mod:`repro.graphs.io` (or,
with ``--edge-list``, from whitespace ``u v w`` lines).  All randomness
is controlled by ``--seed`` so runs are reproducible.  Released
artifacts (noisy graphs, trees) are written as JSON; scalar results are
printed to stdout.

Privacy note: each CLI invocation performs one release costing the
given ``--eps``.  Composition across invocations is the caller's
responsibility (see :class:`repro.dp.accountant.Accountant` for
programmatic budgeting).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import (
    Rng,
    release_private_mst,
    release_private_paths,
    release_synthetic_graph,
    release_tree_all_pairs,
    private_distance,
)
from .exceptions import ReproError
from .graphs.graph import WeightedGraph
from .graphs.io import graph_to_json, load_graph, read_edge_list
from .mechanisms import registered_mechanisms

__all__ = ["main", "build_parser"]


def _load(args: argparse.Namespace) -> WeightedGraph:
    path = Path(args.graph)
    if args.edge_list:
        with path.open() as stream:
            return read_edge_list(stream)
    return load_graph(path)


def _parse_vertex(token: str) -> object:
    """Interpret a vertex argument: int if it looks like one, tuple if
    it contains commas (grid vertices like ``3,4``), else string."""
    if "," in token:
        return tuple(_parse_vertex(part) for part in token.split(","))
    try:
        return int(token)
    except ValueError:
        return token


def _write_graph(graph: WeightedGraph, out: str | None) -> None:
    payload = graph_to_json(graph)
    if out:
        Path(out).write_text(payload)
    else:
        print(payload)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Differentially private graph releases in the private "
            "edge-weight model (Sealfon, PODS 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_eps: bool = True):
        p.add_argument("--graph", required=True, help="input graph file")
        p.add_argument(
            "--edge-list",
            action="store_true",
            help="input is 'u v w' lines instead of repro JSON",
        )
        if needs_eps:
            p.add_argument(
                "--eps", type=float, required=True, help="privacy budget"
            )
        p.add_argument(
            "--seed", type=int, default=None, help="RNG seed (reproducible)"
        )

    p = sub.add_parser(
        "info", help="print graph statistics (no privacy cost)"
    )
    add_common(p, needs_eps=False)

    p = sub.add_parser(
        "distance",
        help="one private distance query (Laplace, sensitivity 1)",
    )
    add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser(
        "paths",
        help="Algorithm 3: release a noisy graph answering all-pairs "
        "shortest paths",
    )
    add_common(p)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument(
        "--no-hop-bias",
        action="store_true",
        help="ablation: omit the (1/eps) log(E/gamma) offset",
    )
    p.add_argument("--out", help="write released graph JSON here")
    p.add_argument("--source", help="also print one released path")
    p.add_argument("--target")

    p = sub.add_parser(
        "synthetic",
        help="release a noisy synthetic graph (Section 4 baseline)",
    )
    add_common(p)
    p.add_argument("--out", help="write released graph JSON here")

    p = sub.add_parser(
        "tree-distances",
        help="Algorithm 1 + Theorem 4.2: all-pairs distances on a tree",
    )
    add_common(p)
    p.add_argument("--root", required=True)
    p.add_argument(
        "--pairs",
        nargs="*",
        default=[],
        metavar="X:Y",
        help="pairs to print, e.g. 3:17 0:9 (default: all from root)",
    )

    p = sub.add_parser(
        "mst", help="Theorem B.3: release an almost-minimum spanning tree"
    )
    add_common(p)
    p.add_argument("--out", help="write released tree edges JSON here")

    p = sub.add_parser(
        "serve",
        help="build a one-epoch distance synopsis and answer queries "
        "from it (post-processing; one budget spend total)",
    )
    add_common(p, needs_eps=False)
    p.add_argument(
        "--eps", type=float, default=None, help="privacy budget "
        "(required unless --config provides it)"
    )
    p.add_argument(
        "--config",
        default=None,
        help="load a declarative ServingConfig JSON document; explicit "
        "flags override its fields",
    )
    p.add_argument(
        "--delta", type=float, default=None, help="approx-DP budget delta"
    )
    p.add_argument(
        "--weight-bound",
        type=float,
        default=None,
        help="public bound M on edge weights (enables the Section 4.2 "
        "covering mechanism on non-tree graphs)",
    )
    p.add_argument(
        "--mechanism",
        choices=[m.name for m in registered_mechanisms()],
        default=None,
        help="force a mechanism instead of auto-selecting",
    )
    p.add_argument(
        "--pairs",
        nargs="+",
        required=True,
        metavar="X:Y",
        help="queries to serve, e.g. 3:17 0,0:4,4",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the graph into this many regional tenants and "
        "relay cross-shard queries over the boundary hubs (default 1 "
        "= unsharded)",
    )
    p.add_argument(
        "--estimate",
        action="store_true",
        help="print rich estimates (value, noise scale, confidence "
        "interval) instead of bare values",
    )
    p.add_argument(
        "--level",
        type=float,
        default=0.95,
        help="confidence level for --estimate intervals (default 0.95)",
    )
    p.add_argument(
        "--synopsis-out",
        help="also write the synopsis JSON here (unsharded only)",
    )
    _add_metrics_out(p)
    _add_audit_log(p)
    _add_observability(p)

    p = sub.add_parser(
        "simulate",
        help="replay rush-hour traffic through the serving engine and "
        "report throughput and empirical error",
    )
    p.add_argument("--rows", type=int, default=12)
    p.add_argument("--cols", type=int, default=12)
    p.add_argument(
        "--eps", type=float, default=None, help="epoch budget "
        "(required unless --config provides it)"
    )
    p.add_argument(
        "--config",
        default=None,
        help="load a declarative ServingConfig JSON document instead "
        "of the flag-style serving parameters",
    )
    p.add_argument("--delta", type=float, default=None)
    p.add_argument(
        "--epochs", type=int, default=1, help="data epochs to replay"
    )
    p.add_argument(
        "--queries", type=int, default=1000, help="rider queries per epoch"
    )
    p.add_argument(
        "--weight-bound",
        type=float,
        default=None,
        help="cap travel times at M and use the covering mechanism",
    )
    p.add_argument(
        "--mechanism",
        choices=[m.name for m in registered_mechanisms()],
        default=None,
        help="force a mechanism instead of auto-selecting",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve through this many regional shard tenants plus a "
        "boundary-hub relay (default 1 = unsharded)",
    )
    p.add_argument("--seed", type=int, default=None)
    _add_metrics_out(p)
    _add_audit_log(p)
    _add_observability(p)

    p = sub.add_parser(
        "audit",
        help="inspect and verify a privacy audit log written by "
        "serve/simulate --audit-log (fail-closed: any hash-chain or "
        "odometer mismatch is an error)",
    )
    p.add_argument(
        "action",
        choices=["tail", "verify", "replay"],
        help="tail: print the last records; verify: check the hash "
        "chain and budget arithmetic; replay: reconstruct the "
        "per-tenant privacy odometer",
    )
    p.add_argument(
        "--log", required=True, help="audit log JSONL path"
    )
    p.add_argument(
        "-n",
        type=int,
        default=10,
        help="records to print for tail (default 10)",
    )
    p.add_argument(
        "--metrics",
        default=None,
        help="for verify: also cross-check the replayed budgets "
        "against this telemetry snapshot's gauges (bit-exact)",
    )

    p = sub.add_parser(
        "report",
        help="render a status summary (budget positions, latency "
        "quantiles, fired alerts) from a telemetry snapshot; exits 1 "
        "when any alert fires",
    )
    p.add_argument(
        "--in",
        dest="report_in",
        required=True,
        help="telemetry snapshot JSON written by --metrics-out",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="evaluate this repro-alert-rules JSON document "
        "(threshold and budget-burn-rate rules)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="render as human-readable text or JSON (default text)",
    )

    p = sub.add_parser(
        "metrics",
        help="render a telemetry snapshot written by serve/simulate "
        "--metrics-out (no privacy cost: snapshots hold only "
        "operational measurements)",
    )
    p.add_argument(
        "--in",
        dest="metrics_in",
        required=True,
        help="telemetry snapshot JSON written by --metrics-out "
        "('-' reads stdin, so snapshots convert offline in a pipe)",
    )
    p.add_argument(
        "--format",
        choices=["json", "prom"],
        default="json",
        help="render as pretty JSON or Prometheus text exposition",
    )
    p.add_argument(
        "--tenant",
        default=None,
        help="print this ledger tenant's remaining budget gauges "
        "instead of the full snapshot",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the rendering here instead of stdout",
    )

    p = sub.add_parser(
        "profile",
        help="render a phase-profile document written by serve/simulate "
        "--profile-out (attribution table, collapsed stacks, or raw "
        "JSON); --check verifies the attribution adds up",
    )
    p.add_argument(
        "--in",
        dest="profile_in",
        required=True,
        help="repro-profile JSON document ('-' reads stdin)",
    )
    p.add_argument(
        "--format",
        choices=["phases", "collapsed", "json"],
        default="phases",
        help="phases: the attribution table; collapsed: "
        "flamegraph.pl-compatible stack lines; json: the raw document",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="fail-closed consistency check: no phase's self time "
        "exceeds its wall time, and the self times sum to the "
        "profiled total within 10%%; exits 1 on violation",
    )

    p = sub.add_parser(
        "flight",
        help="inspect a slow-query flight-recorder dump written by "
        "serve/simulate --flight-out",
    )
    p.add_argument(
        "--in",
        dest="flight_in",
        required=True,
        help="repro-flight JSON document ('-' reads stdin)",
    )
    p.add_argument(
        "-n",
        type=int,
        default=10,
        help="exemplar records to print (default 10, newest last)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="compact text lines or the raw document",
    )

    p = sub.add_parser(
        "lint",
        help="run the privlint static privacy/determinism analyzer "
        "(PL1 privacy taint — inter-procedural, PL2 rng discipline, "
        "PL3 observational purity, PL4 determinism hygiene, PL5 "
        "budget hygiene); exits 1 on any finding not suppressed by "
        "an inline 'privlint: ignore[rule]' justification",
    )
    p.add_argument(
        "--paths",
        nargs="+",
        default=None,
        metavar="PATH",
        help="files or directories to check (default: the whole "
        "installed repro package; directories never descend into "
        "tests/)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="findings as text lines or the versioned repro-lint "
        "JSON report document (default text)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="also write the rendering here (CI uploads the JSON "
        "report as an artifact)",
    )
    p.add_argument(
        "--report-unused-ignores",
        action="store_true",
        help="also list inline 'privlint: ignore' comments that "
        "suppressed no finding this run (warn-only; see "
        "--strict-ignores)",
    )
    p.add_argument(
        "--strict-ignores",
        action="store_true",
        help="exit 1 when any inline ignore suppressed no finding "
        "(implies --report-unused-ignores)",
    )

    return parser


def _add_metrics_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's telemetry snapshot here (metrics + "
        "spans; readable by the metrics subcommand)",
    )
    p.add_argument(
        "--metrics-format",
        choices=["json", "prom"],
        default="json",
        help="format for --metrics-out (default json snapshot; prom "
        "drops spans)",
    )


def _add_audit_log(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--audit-log",
        default=None,
        help="append the run's privacy audit trail (budget spends, "
        "rotations, builds) to this hash-chained JSONL file; "
        "readable by the audit subcommand",
    )


def _add_observability(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--event-log",
        default=None,
        help="append the run's structured lifecycle events (service "
        "start, mechanism selections, spends, builds, rotations, "
        "refreshes, batches) as JSON lines here",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        help="profile the run (deterministic phase attribution plus a "
        "background stack sampler) and write the repro-profile JSON "
        "document here; readable by the profile subcommand",
    )
    p.add_argument(
        "--flight-out",
        default=None,
        help="record slow-query exemplars and write the repro-flight "
        "JSON document here; readable by the flight subcommand",
    )
    p.add_argument(
        "--flight-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fixed slow-query threshold while the recorder's "
        "per-route p99 sketch warms up (default: capture nothing "
        "until warmed)",
    )


def _observability_bundle(args: argparse.Namespace, telemetry):
    """Instruments requested by --profile-out / --flight-out, attached
    to (or creating) the run's private bundle.

    Returns ``(telemetry, profiler, sampler, flight)``; instrument
    slots are None when the matching flag is absent.  The instruments
    are created *here* rather than letting
    :func:`~repro.serving.config.serve` attach its own because the CLI
    must hold the references to dump them after the run — serve() sees
    them already enabled on the bundle and leaves them alone.
    """
    profiler = sampler = flight = None
    wants_flight = (
        args.flight_out is not None or args.flight_threshold is not None
    )
    if args.profile_out or wants_flight:
        from .telemetry import (
            FlightRecorder,
            PhaseProfiler,
            SamplingProfiler,
            Telemetry,
        )

        if telemetry is None:
            telemetry = Telemetry()
        if args.profile_out:
            # The profile's alloc column needs allocation tracing;
            # _run_observed detaches the profiler, which stops it.
            profiler = PhaseProfiler(trace_allocations=True)
            telemetry = telemetry.with_profiler(profiler)
            sampler = SamplingProfiler()
        if wants_flight:
            flight = FlightRecorder(
                threshold_seconds=args.flight_threshold
            )
            telemetry = telemetry.with_flight(flight)
    return telemetry, profiler, sampler, flight


def _run_observed(telemetry, profiler, sampler, root: str, fn):
    """Run ``fn`` under the bundle's root span with the stack sampler
    going, so every phase of the run lands inside one root frame and
    the attribution table's self times sum to the run's wall clock;
    then detach the profiler, keeping its phase stats."""
    if profiler is None:
        return fn()
    from .telemetry import use_telemetry

    sampler.start()
    try:
        with use_telemetry(telemetry), telemetry.span(root):
            return fn()
    finally:
        sampler.stop()
        profiler.detach()


def _write_observability(
    args: argparse.Namespace, profiler, sampler, flight
) -> None:
    if args.profile_out:
        from .telemetry import profile_document

        document = profile_document(profiler, sampler)
        Path(args.profile_out).write_text(
            json.dumps(document, indent=2)
        )
    if args.flight_out:
        Path(args.flight_out).write_text(
            json.dumps(flight.to_document(), indent=2)
        )


def _cmd_info(args: argparse.Namespace) -> int:
    # Topology-only statistics: in the paper's model the topology is
    # public but the weights are private, so printing total_weight()
    # here (as this command once did) was a raw unnoised release —
    # privlint PL1 caught it.  Weight-derived statistics belong behind
    # a budgeted release (the distance/serve subcommands).
    graph = _load(args)
    from .algorithms import is_connected

    stats = {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "directed": graph.directed,
        "connected": is_connected(graph),
    }
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    graph = _load(args)
    rng = Rng(args.seed)
    value = private_distance(
        graph,
        _parse_vertex(args.source),
        _parse_vertex(args.target),
        eps=args.eps,
        rng=rng,
    )
    print(f"{value:.6f}")
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    graph = _load(args)
    rng = Rng(args.seed)
    release = release_private_paths(
        graph,
        eps=args.eps,
        gamma=args.gamma,
        rng=rng,
        hop_bias=not args.no_hop_bias,
    )
    _write_graph(release.graph, args.out)
    if args.source and args.target:
        path = release.path(
            _parse_vertex(args.source), _parse_vertex(args.target)
        )
        print(json.dumps({"path": [str(v) for v in path]}))
    return 0


def _cmd_synthetic(args: argparse.Namespace) -> int:
    graph = _load(args)
    rng = Rng(args.seed)
    release = release_synthetic_graph(graph, eps=args.eps, rng=rng)
    _write_graph(release.graph, args.out)
    return 0


def _cmd_tree_distances(args: argparse.Namespace) -> int:
    graph = _load(args)
    rng = Rng(args.seed)
    root = _parse_vertex(args.root)
    release = release_tree_all_pairs(graph, eps=args.eps, rng=rng, root=root)
    if args.pairs:
        for token in args.pairs:
            x_raw, _, y_raw = token.partition(":")
            x, y = _parse_vertex(x_raw), _parse_vertex(y_raw)
            print(f"{token}\t{release.distance(x, y):.6f}")
    else:
        single = release.single_source
        for v in graph.vertices():
            print(f"{root}:{v}\t{single.distance_from_root(v):.6f}")
    return 0


def _cmd_mst(args: argparse.Namespace) -> int:
    graph = _load(args)
    rng = Rng(args.seed)
    release = release_private_mst(graph, eps=args.eps, rng=rng)
    edges = [[str(u), str(v)] for u, v in release.tree_edges]
    payload = json.dumps({"tree_edges": edges})
    if args.out:
        Path(args.out).write_text(payload)
    else:
        print(payload)
    return 0


def _serving_config(args: argparse.Namespace):
    """Assemble the declarative :class:`~repro.serving.ServingConfig`
    for ``serve`` and ``simulate``: the ``--config`` document (if any)
    as the base, explicit flags layered on top."""
    from .exceptions import GraphError
    from .serving import ServingConfig

    if args.config:
        # The document must state eps itself; see ServingConfig.from_json.
        config = ServingConfig.from_json(Path(args.config).read_text())
    elif args.eps is None:
        raise GraphError(
            f"{args.command} needs --eps (or a --config document "
            "providing it)"
        )
    else:
        config = ServingConfig()
    overrides: dict = {}
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.weight_bound is not None:
        overrides["weight_bound"] = args.weight_bound
    if args.mechanism is not None:
        overrides["mechanism"] = args.mechanism
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.audit_log is not None:
        overrides["audit_log"] = args.audit_log
    if args.event_log is not None:
        overrides["event_log"] = args.event_log
    return config.with_overrides(**overrides) if overrides else config


def _write_metrics(telemetry, path: str, fmt: str) -> None:
    """Dump a run's telemetry bundle for the ``metrics`` subcommand."""
    if fmt == "prom":
        Path(path).write_text(telemetry.prometheus_text())
    else:
        Path(path).write_text(json.dumps(telemetry.snapshot(), indent=2))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .exceptions import GraphError
    from .serving import serve
    from .telemetry import Telemetry

    graph = _load(args)
    rng = Rng(args.seed)
    config = _serving_config(args)
    if config.shards > 1 and args.synopsis_out:
        raise GraphError(
            "--synopsis-out is not supported with --shards > 1 "
            "(a sharded service holds one synopsis per shard)"
        )
    # A fresh bundle per invocation: the snapshot measures this run
    # alone, not whatever else the process default has accumulated.
    telemetry = Telemetry() if args.metrics_out else None
    telemetry, profiler, sampler, flight = _observability_bundle(
        args, telemetry
    )

    def run():
        service = serve(graph, config, rng, telemetry=telemetry)
        print(
            f"# mechanism: {service.mechanism}  "
            f"budget: {service.epoch_budget}"
        )
        for token in args.pairs:
            s_raw, _, t_raw = token.partition(":")
            s, t = _parse_vertex(s_raw), _parse_vertex(t_raw)
            if args.estimate:
                estimate = service.estimate(s, t)
                lo, hi = estimate.confidence_interval(args.level)
                print(
                    f"{token}\t{estimate.value:.6f}\t"
                    f"scale={estimate.noise_scale:g}\t"
                    f"ci{args.level:g}=[{lo:.6f}, {hi:.6f}]"
                )
            else:
                print(f"{token}\t{service.query(s, t):.6f}")
        return service

    service = _run_observed(
        telemetry, profiler, sampler, "serve.run", run
    )
    if args.synopsis_out:
        Path(args.synopsis_out).write_text(service.synopsis.to_json())
    if args.metrics_out:
        _write_metrics(
            service.telemetry, args.metrics_out, args.metrics_format
        )
    _write_observability(args, profiler, sampler, flight)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:  # privlint: ignore[PL1] prints released estimates and analyst-side error metrics from the replay harness
    from .exceptions import GraphError
    from .serving import replay_rush_hour
    from .telemetry import Telemetry

    rng = Rng(args.seed)
    telemetry = Telemetry() if args.metrics_out else None
    telemetry, profiler, sampler, flight = _observability_bundle(
        args, telemetry
    )
    if args.config:
        # The config document is the single source of truth here —
        # refuse explicit serving flags rather than silently dropping
        # them (serve's flags-override-config layering would be
        # ambiguous for a whole replay's worth of parameters).  The
        # journal flags are operational and may ride along.
        clashes = sorted(
            name
            for name, value in (
                ("--eps", args.eps),
                ("--delta", args.delta),
                ("--weight-bound", args.weight_bound),
                ("--mechanism", args.mechanism),
                ("--shards", args.shards),
            )
            if value is not None
        )
        if clashes:
            raise GraphError(
                "simulate got both --config and flag-style serving "
                f"parameters ({', '.join(clashes)}); pass one or the "
                "other"
            )
    config = _serving_config(args)
    report = _run_observed(
        telemetry,
        profiler,
        sampler,
        "simulate.run",
        lambda: replay_rush_hour(
            rng,
            config,
            rows=args.rows,
            cols=args.cols,
            epochs=args.epochs,
            queries_per_epoch=args.queries,
            telemetry=telemetry,
        ),
    )
    if args.metrics_out:
        _write_metrics(telemetry, args.metrics_out, args.metrics_format)
    _write_observability(args, profiler, sampler, flight)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .telemetry import validate_snapshot
    from .telemetry.audit import (
        read_audit_log,
        replay_odometer,
        verify_against_snapshot,
        verify_audit_log,
    )

    records = read_audit_log(args.log)
    if args.action == "tail":
        for record in records[-args.n :] if args.n > 0 else []:
            print(json.dumps(record))
        return 0
    if args.action == "replay":
        print(json.dumps(replay_odometer(records), indent=2))
        return 0
    summary = verify_audit_log(records)
    # verify prints the compact verdict; replay prints the odometer.
    del summary["odometer"]
    if args.metrics is not None:
        document = _load_snapshot(args.metrics)
        validate_snapshot(document)
        summary["gauges_checked"] = verify_against_snapshot(
            records, document
        )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry import snapshot_budgets, validate_snapshot
    from .telemetry.monitor import evaluate_rules, load_alert_rules

    document = _load_snapshot(args.report_in)
    validate_snapshot(document)
    latency = [
        {
            "labels": dict(entry.get("labels", {})),
            "count": entry.get("count", 0),
            **(entry.get("quantiles") or {}),
        }
        for entry in document["metrics"]
        if entry["kind"] == "histogram"
        and entry["name"] == "serving.query.latency"
    ]
    alerts = []
    if args.rules is not None:
        rules = load_alert_rules(Path(args.rules).read_text())
        alerts = evaluate_rules(rules, document)
    report = {
        "budgets": {
            tenant: _budget_position(gauges)
            for tenant, gauges in snapshot_budgets(
                document["metrics"]
            ).items()
        },
        "latency": latency,
        "alerts": [alert.as_dict() for alert in alerts],
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_text_report(report, rules_given=args.rules is not None)
    return 1 if alerts else 0


def _budget_position(gauges: dict) -> dict:
    """A tenant's budget gauges as the report and ``metrics --tenant``
    render them (0.0 for a gauge the snapshot lacks)."""
    return {
        "eps_spent": gauges.get("budget.eps.spent", 0.0),
        "eps_remaining": gauges.get("budget.eps.remaining", 0.0),
        "delta_remaining": gauges.get("budget.delta.remaining", 0.0),
    }


def _print_text_report(report: dict, rules_given: bool) -> None:
    print("== budgets ==")
    if not report["budgets"]:
        print("(no budget gauges in snapshot)")
    for tenant, position in report["budgets"].items():
        print(
            f"{tenant}: eps spent {position['eps_spent']:g} / "
            f"remaining {position['eps_remaining']:g} "
            f"(delta remaining {position['delta_remaining']:g})"
        )
    print("== query latency ==")
    if not report["latency"]:
        print("(no serving.query.latency histograms in snapshot)")
    for entry in report["latency"]:
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        quantiles = "  ".join(
            f"{q}={entry[q] * 1e6:.1f}us"
            for q in ("p50", "p95", "p99")
            if entry.get(q) is not None
        )
        print(f"{labels or '(no labels)'}: n={entry['count']}  {quantiles}")
    print("== alerts ==")
    if not report["alerts"]:
        print("(no rules given)" if not rules_given else "(none fired)")
    for alert in report["alerts"]:
        print(
            f"[{alert['severity']}] {alert['rule']}: {alert['message']}"
        )


def _load_snapshot(path: str) -> dict:
    """Parse a JSON document from a file, or stdin when ``path`` is
    ``-`` — so snapshots and profiles convert offline in a pipe."""
    from .exceptions import TelemetryError

    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise TelemetryError(
            f"{'stdin' if path == '-' else path} is not valid JSON: "
            f"{error}"
        ) from None


def _emit(rendered: str, out: str | None) -> None:
    """Print a rendering, or write it to ``out`` when given."""
    if out is not None:
        Path(out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .telemetry import snapshot_to_prometheus, validate_snapshot

    document = _load_snapshot(args.metrics_in)
    validate_snapshot(document)
    if args.tenant is not None:
        rendered = (
            json.dumps(_tenant_budget(document, args.tenant), indent=2)
            + "\n"
        )
    elif args.format == "prom":
        rendered = snapshot_to_prometheus(document)
    else:
        rendered = json.dumps(document, indent=2) + "\n"
    _emit(rendered, args.out)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .telemetry import validate_profile

    document = validate_profile(_load_snapshot(args.profile_in))
    if args.check:
        problems = _check_profile(document)
        if problems:
            for problem in problems:
                print(f"profile check failed: {problem}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(json.dumps(document, indent=2))
    elif args.format == "collapsed":
        sys.stdout.write(str(document.get("collapsed") or ""))
    else:
        _print_phase_table(document)
    return 0


def _check_profile(document: dict) -> list:
    """Attribution-consistency violations in a profile document (empty
    list = consistent): per-phase self time bounded by wall time, and
    self times summing to the profiled total within 10%."""
    problems: list = []
    phases = document["phases"]
    if not phases:
        problems.append("document has no phases")
        return problems
    attributed = 0.0
    for row in phases:
        self_seconds = float(row["wall_self_seconds"])
        attributed += self_seconds
        if self_seconds > float(row["wall_seconds"]) + 1e-9:
            problems.append(
                f"phase {row['phase']!r} self time {self_seconds:.6f}s "
                f"exceeds its wall time {row['wall_seconds']:.6f}s"
            )
    total = float(document["total_wall_seconds"])
    if total > 0.0:
        drift = abs(attributed - total) / total
        if drift > 0.10:
            problems.append(
                f"attributed self time {attributed:.6f}s is "
                f"{drift:.1%} off the profiled total {total:.6f}s "
                "(tolerance 10%)"
            )
    return problems


def _print_phase_table(document: dict) -> None:
    print(
        f"# profiled wall time: {document['total_wall_seconds']:.6f}s"
        + (
            f"  stack samples: {document['samples']}"
            if "samples" in document
            else ""
        )
    )
    print(
        f"{'phase':<24} {'count':>7} {'wall_s':>10} {'self_s':>10} "
        f"{'cpu_s':>10} {'alloc_kb':>10}"
    )
    for row in document["phases"]:
        print(
            f"{row['phase']:<24} {row['count']:>7} "
            f"{row['wall_seconds']:>10.6f} "
            f"{row['wall_self_seconds']:>10.6f} "
            f"{row['cpu_seconds']:>10.6f} "
            f"{row['alloc_net_bytes'] / 1024.0:>+10.1f}"
        )


def _cmd_flight(args: argparse.Namespace) -> int:
    from .telemetry import validate_flight

    document = validate_flight(_load_snapshot(args.flight_in))
    if args.format == "json":
        print(json.dumps(document, indent=2))
        return 0
    records = document["records"]
    print(
        f"# considered {document['considered']}  "
        f"captured {document['captured']}  "
        f"retained {len(records)} (capacity {document['capacity']})"
    )
    for record in records[-args.n :] if args.n > 0 else []:
        pair = record.get("pair")
        pair_text = f"{pair[0]}->{pair[1]}" if pair else "-"
        phases = record.get("phases") or {}
        top = max(phases, key=phases.get) if phases else "-"
        print(
            f"[{record['seq']}] {record['route']} {pair_text}  "
            f"{record['latency_seconds'] * 1e6:.1f}us "
            f"(threshold {record['threshold_seconds'] * 1e6:.1f}us, "
            f"{'adaptive' if record.get('adaptive') else 'fixed'})  "
            f"mechanism={record.get('mechanism') or '-'}  "
            f"epoch={record.get('epoch')}  top_phase={top}"
        )
    return 0


def _tenant_budget(document: dict, tenant: str) -> dict:
    """One tenant's budget position from a snapshot's gauges."""
    from .exceptions import TelemetryError
    from .telemetry import snapshot_budgets

    budgets = snapshot_budgets(document["metrics"])
    if tenant not in budgets:
        raise TelemetryError(
            f"no budget gauges for tenant {tenant!r} in the snapshot"
            + (f"; known tenants: {', '.join(budgets)}" if budgets else "")
        )
    return {"tenant": tenant, **_budget_position(budgets[tenant])}


def _cmd_lint(args: argparse.Namespace) -> int:
    from .privlint import lint_document, render_text, run_lint

    paths = [Path(p) for p in args.paths] if args.paths else None
    start = time.perf_counter()
    result = run_lint(paths=paths)
    elapsed = time.perf_counter() - start
    # Wall time to stderr so CI logs make analyzer slowdowns visible
    # without disturbing the parseable stdout rendering.
    print(
        f"privlint: analyzed {len(result.files)} files in "
        f"{elapsed:.2f}s",
        file=sys.stderr,
    )
    document = lint_document(result)
    show_unused = args.report_unused_ignores or args.strict_ignores
    rendered = (
        json.dumps(document, indent=2) + "\n"
        if args.format == "json"
        else render_text(document, show_unused_ignores=show_unused)
    )
    if args.out is not None:
        Path(args.out).write_text(rendered)
        if args.format == "text":
            sys.stdout.write(rendered)
    else:
        sys.stdout.write(rendered)
    status = 0
    total = document["summary"]["total"]
    if total:
        print(
            f"privlint: {total} finding(s) — fix them or add an "
            "inline 'privlint: ignore[rule]' justification",
            file=sys.stderr,
        )
        status = 1
    unused = document["summary"]["unused_ignores"]
    if unused and show_unused:
        strictness = (
            "failing the gate (--strict-ignores)"
            if args.strict_ignores
            else "warn-only; --strict-ignores fails the gate"
        )
        print(
            f"privlint: {unused} unused ignore comment(s) — delete "
            f"them or tighten their rule list ({strictness})",
            file=sys.stderr,
        )
        if args.strict_ignores:
            status = 1
    return status


_COMMANDS = {
    "info": _cmd_info,
    "distance": _cmd_distance,
    "paths": _cmd_paths,
    "synthetic": _cmd_synthetic,
    "tree-distances": _cmd_tree_distances,
    "mst": _cmd_mst,
    "serve": _cmd_serve,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
    "profile": _cmd_profile,
    "flight": _cmd_flight,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
