"""The three serving workloads and the run that drives them.

One client in one thread calls the public serving API and waits for
each answer (a closed loop).  Each call is timed on the calling
thread's CPU clock, each setup and refresh on the process CPU clock,
and scaled to a nominal machine speed by the reference kernels run
around it (:mod:`perfbench.speed`); the raw CPU and wall-clock times
are kept beside them as diagnostics.

Every workload serves the 64x64 road grid with the ``hub-set``
mechanism at eps = 1 and runs all five API calls, so that every
end-to-end metric has samples on every workload:

* ``hot-pairs`` -- one unsharded server with the phase profiler and an
  in-memory audit log on, so every query takes the observed path.
  Riders pick 2,000 popular pairs by Zipf popularity; the cache is
  warmed after every setup and write, so queries are hits.  Three
  setups, then two rounds of a full ``refresh`` and a regional update.
  An unsharded server has no ``refresh_shard``, so its regional update
  is ``refresh`` with the regionally updated graph.
* ``cold-sharded`` -- four shards and the relay, default telemetry,
  uniform riders over all ~8.4M pairs against a 4,096-pair LRU cache:
  nearly every query misses.  Three setups, then three rounds of
  ``refresh`` and ``refresh_shard``.
* ``rush-hour`` -- four shards, default telemetry plus an in-memory
  audit log.  Cycles of ``refresh``, point queries, three batches, then one
  ``refresh_shard`` and the same again, until the time is up.

The CPU speed of a shared virtual machine drifts by up to 1.5x within
seconds, so the timed queries are spread over the whole run: in the
first two workloads every setup and write is followed by an equal
share of the timed window, and within it point queries and batches
alternate so that each gets half.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import inputs, speed, stats, trace, truth
from .metrics import OP_KINDS

EPS = 1.0
SETUP_REPEATS = 3
VERIFY_PAIRS = 64
#: Pairs of the seeded probe batch whose answers the digest covers.
DIGEST_PAIRS = 256
WRITES = ("setup", "refresh", "refresh_shard")
#: Operations scaled by the lookup kernel (writes: the sweep kernel).
SCALED = ("query", "batch")
#: The traced repeat: point queries and batches (hot-pairs,
#: cold-sharded), or whole cycles (rush-hour).
TRACED_QUERIES = 400
TRACED_BATCHES = 10
TRACED_CYCLES = 2
#: The traced repeat measures the wrappers' cost again when this much
#: time has passed: the machine's speed drifts within seconds, but
#: measuring before every operation would leave each one cold caches.
RECALIBRATE_SECONDS = 0.5


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server it runs against."""

    name: str
    shards: int
    cache_size: Optional[int]
    #: Phase profiler on, so queries take the observed path.
    profile: bool
    #: In-memory audit log on.
    audit: bool
    #: Riders pick popular pairs (else uniform pairs).
    hot: bool
    batch_size: int
    #: Ledger spends of one setup, refresh and regional update.
    spends: Tuple[int, int, int]
    #: Rounds of (refresh, regional update) after the setups.
    write_rounds: int


WORKLOADS: Dict[str, Workload] = {
    "hot-pairs": Workload("hot-pairs", 1, None, True, True, True, 256, (1, 1, 1), 2),
    "cold-sharded": Workload("cold-sharded", 4, 4096, False, False, False, 64, (5, 5, 2), 3),
    "rush-hour": Workload("rush-hour", 4, None, False, True, False, 64, (5, 5, 2), 0),
}


@dataclass
class Op:
    """One call into the service, with what it returned."""

    kind: str
    pairs: Optional[np.ndarray] = None
    #: The weight state a query reads, or the one a write installs.
    state: int = 0
    shard: Optional[int] = None
    cycle: int = -1
    cpu_ns: int = 0
    wall_ns: int = 0
    answers: Optional[np.ndarray] = None
    unique: int = 0
    ok: bool = False
    #: Index of the lookup reading a point query or batch ran after.
    reading: int = -1
    #: Mean sweep reading around a write, in ns.
    sweep_ns: float = 0.0


class Run:
    """Drives one workload and checks everything it is told."""

    def __init__(self, workload: Workload, seed: int, seconds: float, log) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.log = log
        self.base = inputs.road_graph(seed)
        self.vertices = list(self.base.vertices())
        self.eu, self.ev = inputs.edge_endpoints(self.base)
        self.midpoints = inputs.edge_midpoints(self.eu, self.ev)
        self.states: List[np.ndarray] = [self.base.weight_vector()]
        self.service_seed = int(inputs.stream(seed, "service").integers(2**31))
        self.service = None
        self.ops: List[Op] = []
        self.attempted = 0
        self.failed = 0
        self._seen: Dict[int, Dict[Tuple[int, int], float]] = {}
        self._points: Dict[int, Dict[Tuple[int, int], None]] = {}
        self._regions: Dict[int, np.ndarray] = {}
        self._issued = 0
        self._expected_spends = 0
        self.meter = speed.Meter()

    # -- failures -------------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        """Count failed operations or checks and report the first few."""
        self.failed += count
        if self.failed - count < 5:
            print(f"# FAILED: {message}", file=self.log)

    # -- the server -----------------------------------------------------

    def graph_for(self, state: int):
        """A fresh graph object carrying one weight state, never
        compiled before: each setup and refresh gets new data."""
        return self.base.with_weights(self.states[state])

    def make_service(self, graph):
        from repro import Rng
        from repro.serving import config
        from repro.telemetry import AuditLog, PhaseProfiler, Telemetry

        telemetry = Telemetry()
        if self.w.audit:
            telemetry = telemetry.with_audit(AuditLog())
        if self.w.profile:
            # Without allocation tracing: tracemalloc makes every
            # allocation in the process a hash-table update whose cost
            # follows cache contention from other tenants (point-query
            # p50 ranged 73-121 us across runs with it, 20-21 us
            # without).  The flight recorder stays off: once warm it
            # loops over every latency bucket seen so far on each
            # query, so its cost grows with the run's length.
            telemetry = telemetry.with_profiler(PhaseProfiler(trace_allocations=False))
        serving = config.ServingConfig(
            mechanism="hub-set",
            eps=EPS,
            shards=self.w.shards,
            cache_size=self.w.cache_size,
            profile=self.w.profile,
        )
        # Looked up at call time, so a traced run sees its wrapper.
        return config.serve(graph, serving, Rng(self.service_seed), telemetry=telemetry)

    def discard(self) -> None:
        """Drop the server, detaching its profiler from the tracer."""
        if self.service is not None:
            self.service.telemetry.profiler.detach()
            self.service = None
        gc.collect()

    def add_state(self, weights: np.ndarray) -> int:
        self.states.append(weights)
        return len(self.states) - 1

    def region(self, index: int) -> np.ndarray:
        """Edge mask of regional update ``index``: a shard of the
        server's public plan, or a grid quadrant when unsharded."""
        key = index % 4
        if key not in self._regions:
            if self.w.shards > 1:
                self._regions[key] = inputs.shard_region(
                    self.service.plan, self.vertices, self.eu, self.ev, key % self.w.shards
                )
            else:
                self._regions[key] = inputs.quadrant_region(self.eu, self.ev, key)
        return self._regions[key]

    def verify_pairs(self, state: int) -> Optional[np.ndarray]:
        """Point-queried pairs of this state to ask again in a batch."""
        pairs = list(self._points.get(state, {}))[:VERIFY_PAIRS]
        return np.asarray(pairs, dtype=np.int64) if pairs else None

    # -- operations -----------------------------------------------------

    def execute(self, op: Op, rec: Optional[trace.Recorder] = None, remember: bool = True) -> None:
        """Run one operation, time it, and check what it returned;
        ``remember`` keeps its answers for later consistency checks."""
        self.attempted += 1
        kind = op.kind
        vs = self.vertices
        if kind in ("setup", "refresh") or (kind == "refresh_shard" and op.shard is None):
            payload = self.graph_for(op.state)
        elif kind == "refresh_shard":
            payload = self.states[op.state]
        elif kind == "query":
            payload = (vs[op.pairs[0, 0]], vs[op.pairs[0, 1]])
        else:
            payload = [(vs[s], vs[t]) for s, t in op.pairs.tolist()]
        if kind == "setup" and self.service is not None:
            self.check_service()
            self.discard()
        cpu = time.process_time_ns if kind in WRITES else time.thread_time_ns
        scaled = kind in SCALED
        if scaled:
            op.reading = self.meter.start()
        else:
            self.meter.stop()
        sweep = self.meter.sweep_ns() if kind in WRITES else 0.0
        row = None
        try:
            wall0 = time.perf_counter_ns()
            cpu0 = cpu()
            if rec is not None:
                row = rec.begin_op(kind)
            try:
                result = self._call(op, payload)
            finally:
                if row is not None:
                    rec.end_op(row)
            op.cpu_ns = cpu() - cpu0
            op.wall_ns = time.perf_counter_ns() - wall0
            op.ok = True
            if scaled:
                self.meter.ran(op.wall_ns)
            if kind in WRITES:
                op.sweep_ns = (sweep + self.meter.sweep_ns()) / 2
        except Exception:
            self.fail(f"{kind} raised\n{traceback.format_exc()}")
            return
        if kind == "setup":
            self.service = result
            self._issued = 0
            self._expected_spends = self.w.spends[0]
            self.check_service()
            return
        if kind in WRITES:
            self._expected_spends += self.w.spends[WRITES.index(kind)]
            return
        if kind == "query":
            op.answers = np.asarray([result], dtype=float)
        else:
            op.answers = np.asarray(result.answers, dtype=float)
            op.unique = result.num_unique
        self._issued += len(op.pairs)
        self.check_answers(op, remember)

    def _call(self, op: Op, payload):
        service = self.service
        if op.kind == "setup":
            return self.make_service(payload)
        if op.kind == "refresh" or (op.kind == "refresh_shard" and op.shard is None):
            return service.refresh(payload)
        if op.kind == "refresh_shard":
            return service.refresh_shard(op.shard, payload)
        if op.kind == "query":
            return service.query(*payload)
        return service.query_batch(payload)

    # -- correctness gate -----------------------------------------------

    def check_answers(self, op: Op, remember: bool = True) -> None:
        """Finite, non-negative, 0 for s == t, and equal for the same
        pair within one weight state (batch against point included)."""
        answers, s, t = op.answers, op.pairs[:, 0], op.pairs[:, 1]
        if len(answers) != len(op.pairs):
            self.fail(f"{op.kind} returned {len(answers)} answers for {len(op.pairs)} pairs")
            return
        bad = ~np.isfinite(answers) | (answers < 0) | ((s == t) & (answers != 0.0))
        if bad.any():
            self.fail(f"{int(bad.sum())} {op.kind} answers are negative, not finite, or nonzero for s == t", int(bad.sum()))
        if not remember:
            return
        seen = self._seen.setdefault(op.state, {})
        differ = 0
        for key, value in zip(zip(s.tolist(), t.tolist()), answers.tolist()):
            if seen.setdefault(key, value) != value:
                differ += 1
        if differ:
            self.fail(f"{differ} {op.kind} answers differ from earlier answers to the same pair", differ)
        if op.kind == "query":
            self._points.setdefault(op.state, {})[(int(s[0]), int(t[0]))] = None

    def check_service(self) -> None:
        """Ledger spends and query counters against what was issued."""
        service = self.service
        spends = len(service.ledger.records())
        if spends != self._expected_spends:
            self.fail(f"ledger recorded {spends} spends, expected {self._expected_spends}")
        if service.stats.num_queries != self._issued:
            self.fail(f"server counted {service.stats.num_queries} queries, {self._issued} were issued")

    # -- schedules ------------------------------------------------------

    def schedule(self, setups: int) -> Iterator[Op]:
        if self.w.name == "rush-hour":
            for _ in range(setups):
                yield Op("setup")
            yield self._probe()
            yield from self._cycles()
        else:
            yield from self._segments(setups)

    def _streams(self):
        table = inputs.hot_pair_table(self.seed) if self.w.hot else None
        return table, inputs.PairStream(self.seed, "point", table), inputs.PairStream(self.seed, "batch", table)

    def _probe(self) -> Op:
        """A seeded batch on the first server, whose answers the digest
        covers: the same for a seed however the run's timing falls."""
        return Op("probe", pairs=inputs.PairStream(self.seed, "probe").take(DIGEST_PAIRS))

    def _segments(self, setups: int) -> Iterator[Op]:
        """Setups, then rounds of ``refresh`` and a regional update;
        each is followed by an equal share of the timed window, so the
        queries sample the whole run."""
        table, points, batches = self._streams()
        share = self.seconds / (setups + 2 * self.w.write_rounds)

        def writes() -> Iterator[Op]:
            for _ in range(setups):
                yield Op("setup")
            for update in range(self.w.write_rounds):
                weights = inputs.epoch_weights(self.seed, self.states[0], self.midpoints, update + 1)
                yield Op("refresh", state=self.add_state(weights))
                regional = inputs.regional_weights(self.seed, weights, self.region(update), update)
                shard = update % self.w.shards if self.w.shards > 1 else None
                yield Op("refresh_shard", state=self.add_state(regional), shard=shard)

        for i, write in enumerate(writes()):
            yield write
            if i == 0:
                yield self._probe()
            if table is not None:
                yield Op("warmup", pairs=table, state=write.state)
            yield from self._interleaved(points, batches, share, write.state)
            check = self.verify_pairs(write.state)
            if check is not None:
                yield Op("verify", pairs=check, state=write.state)

    def _interleaved(self, points, batches, seconds: float, state: int) -> Iterator[Op]:
        """Point queries and batches for ``seconds``, whichever has had
        less wall time going next (at least one of each)."""
        spent = {"query": 0, "batch": 0}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not all(spent.values()):
            kind = min(spent, key=spent.get)
            size = 1 if kind == "query" else self.w.batch_size
            op = Op(kind, pairs=(points if kind == "query" else batches).take(size), state=state)
            yield op
            spent[kind] += op.wall_ns or 1

    def _cycles(self) -> Iterator[Op]:
        _, points, batches = self._streams()
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < self.seconds:
            state = 0
            for kind in inputs.cycle_kinds(1):
                if kind == "refresh":
                    weights = inputs.epoch_weights(self.seed, self.states[0], self.midpoints, cycle + 1)
                    state = self.add_state(weights)
                    yield Op(kind, state=state, cycle=cycle)
                elif kind == "refresh_shard":
                    weights = inputs.regional_weights(self.seed, self.states[state], self.region(cycle), cycle)
                    state = self.add_state(weights)
                    yield Op(kind, state=state, shard=cycle % self.w.shards, cycle=cycle)
                elif kind == "verify":
                    check = self.verify_pairs(state)
                    if check is not None:
                        yield Op(kind, pairs=check, state=state, cycle=cycle)
                elif kind == "query":
                    yield Op(kind, pairs=points.take(1), state=state, cycle=cycle)
                else:
                    yield Op(kind, pairs=batches.take(self.w.batch_size), state=state, cycle=cycle)
            cycle += 1

    def drive(self, setups: int) -> None:
        """Run the workload's schedule, keeping every operation."""
        for op in self.schedule(setups):
            self.execute(op)
            self.ops.append(op)
            if op.kind == "setup" and self.service is None:
                break
        self.meter.stop()
        if self.service is not None:
            self.check_service()

    # -- results --------------------------------------------------------

    def timed(self, kind: str) -> List[Op]:
        return [op for op in self.ops if op.kind == kind and op.ok]

    def speed_factor(self, op: Op) -> float:
        """Nominal over measured speed around ``op``
        (:mod:`perfbench.speed`)."""
        if op.kind in SCALED:
            return self.meter.factor(op.reading)
        return speed.SWEEP_NS / op.sweep_ns

    def end_to_end(self) -> Dict[str, Tuple[float, int, float, float]]:
        """``name -> (value, samples, raw CPU twin, wall-clock twin)``
        of every timed end-to-end metric; the value is CPU time scaled
        to the nominal speed."""
        out: Dict[str, Tuple[float, int, float, float]] = {}

        def put(name, ops, scale, per, pick=np.median):
            if not ops:
                self.fail(f"no samples for {name}")
                return
            cpu = [op.cpu_ns / per(op) / scale for op in ops]
            value = [c * self.speed_factor(op) for c, op in zip(cpu, ops)]
            wall = [op.wall_ns / per(op) / scale for op in ops]
            out[name] = (float(pick(value)), len(ops), float(pick(cpu)), float(pick(wall)))

        one = lambda op: 1  # noqa: E731
        queries = self.timed("query")
        put("setup_s", self.timed("setup"), 1e9, one)
        put("query_p50_us", queries, 1e3, one)
        put("query_p99_us", queries, 1e3, one, lambda v: np.percentile(v, stats.TAIL_PERCENTILE))
        put("batch_us_per_pair", self.timed("batch"), 1e3, lambda op: len(op.pairs))
        put("refresh_s", self.timed("refresh"), 1e9, one)
        put("refresh_shard_s", self.timed("refresh_shard"), 1e9, one)
        return out

    def answer_quality(self) -> Tuple[float, float]:
        """``(mae, clamped share)`` over every served answer with
        s != t, against exact distances computed now."""
        by_state: Dict[int, List[Op]] = {}
        for op in self.ops:
            if op.kind in ("query", "batch") and op.answers is not None:
                by_state.setdefault(op.state, []).append(op)
        total, clamped, count = 0.0, 0, 0
        for state, ops in by_state.items():
            pairs = np.concatenate([op.pairs for op in ops])
            answers = np.concatenate([op.answers for op in ops])
            s, t = pairs[:, 0], pairs[:, 1]
            exact = truth.exact_distances(
                len(self.vertices), self.eu, self.ev, self.states[state], s, t
            )
            off = s != t
            total += float(np.abs(answers[off] - exact[off]).sum())
            clamped += int((answers[off] == 0.0).sum())
            count += int(off.sum())
        if count == 0:
            self.fail("no answers with s != t to score")
            return 0.0, 0.0
        return total / count, clamped / count

    def digest(self) -> Tuple[str, int]:
        """SHA-256 of the probe batch's answers, as little-endian
        doubles, and how many there are."""
        for op in self.ops:
            if op.kind == "probe" and op.answers is not None:
                data = np.ascontiguousarray(op.answers, dtype="<f8").tobytes()
                return hashlib.sha256(data).hexdigest(), len(op.answers)
        return "none", 0

    # -- traced replay --------------------------------------------------

    def traced_selection(self) -> List[Op]:
        """The operations the traced run repeats: the setup, the
        warm-up, every write, and the first point queries and batches
        (rush-hour: every operation of the first cycles)."""
        caps = {"query": TRACED_QUERIES, "batch": TRACED_BATCHES}
        chosen = []
        for op in self.ops:
            if op.kind in ("verify", "probe") or not op.ok:
                continue
            if op.cycle >= 0:
                keep = op.cycle < TRACED_CYCLES
            elif op.kind in caps:
                keep = caps[op.kind] > 0
                caps[op.kind] -= 1
            else:
                keep = True
            if keep:
                chosen.append(op)
        return chosen

    def replay(self, ops: List[Op]) -> Tuple[trace.Analysis, trace.Recorder, Dict[str, float]]:
        """Repeat ``ops`` on a fresh server with every layer traced;
        answers must not change."""
        self.discard()
        rec = trace.Recorder()
        inside: List[int] = []
        outside: List[int] = []
        calibrated_at = -RECALIBRATE_SECONDS
        uninstall = trace.install(rec)
        plain: Dict[str, int] = {}
        traced: Dict[str, int] = {}
        before = None
        batch_queries = batch_unique = 0
        try:
            for op in ops:
                again = dataclasses.replace(op, cpu_ns=0, wall_ns=0, answers=None, ok=False)
                if op.kind in ("query", "batch") and before is None and self.service is not None:
                    before = self.service.stats.as_dict()
                if op.kind == "warmup":
                    self.execute(again, remember=False)
                    continue
                if time.perf_counter() - calibrated_at >= RECALIBRATE_SECONDS:
                    cost = trace.calibrate()
                    calibrated_at = time.perf_counter()
                # Answers are compared with the untraced run's below.
                self.execute(again, rec, remember=False)
                if len(inside) < len(rec.op_kinds):
                    inside.append(cost[0])
                    outside.append(cost[1])
                if op.answers is not None and (
                    again.answers is None or not np.array_equal(op.answers, again.answers)
                ):
                    self.fail(f"traced {op.kind} answers differ from the untraced run")
                if op.kind == "batch":
                    batch_queries += len(op.pairs)
                    batch_unique += again.unique
                plain[op.kind] = plain.get(op.kind, 0) + op.cpu_ns
                traced[op.kind] = traced.get(op.kind, 0) + again.cpu_ns
            after = self.service.stats.as_dict() if self.service is not None else None
            if self.service is not None:
                self.check_service()
        finally:
            uninstall()
        analysis = trace.analyze(rec, inside, outside)
        for problem in analysis.problems:
            self.fail(f"trace integrity: {problem}")
        extra = {
            "overhead_share": sum(traced.values()) / sum(plain.values()) - 1.0 if plain else 0.0,
            "overhead_by_kind": {k: traced[k] / plain[k] - 1.0 for k in plain if plain[k]},
            "calibration_inside_ns": int(np.median(inside)) if inside else 0,
            "calibration_outside_ns": int(np.median(outside)) if outside else 0,
            "batch_queries": batch_queries,
            "batch_unique": batch_unique,
        }
        if before is not None and after is not None:
            extra["hits"] = after["cache_hits"] - before["cache_hits"]
            extra["point_lookups"] = after["point_queries"] - before["point_queries"]
        return analysis, rec, extra


def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux ``ru_maxrss`` is
    in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(analysis: trace.Analysis, rec: trace.Recorder, extra: Dict[str, float], clamped: float) -> Dict[str, float]:
    """Every per-layer metric of a traced replay."""
    a = analysis
    counters = rec.counters

    def total_s(*spans: str) -> float:
        return sum(int(a.attributed[a.rows(s)].sum()) for s in spans) / 1e9

    def mean_us(span: str) -> float:
        rows = a.rows(span)
        return float(a.attributed[rows].mean()) / 1e3 if len(rows) else 0.0

    totals = a.op_totals()
    layers = a.self_by_layer()
    queries = totals.get("query", (0, 0))[0]
    telemetry_rows = a.layer_rows("telemetry")
    kinds = np.asarray(a.op_kinds)
    in_queries = kinds[a.op[telemetry_rows]] == "query" if len(telemetry_rows) else np.zeros(0, bool)
    serving_ns = sum(totals.get(k, (0, 0))[1] for k in ("query", "batch"))
    telemetry_serving = sum(layers.get(k, {}).get("telemetry", 0) for k in ("query", "batch"))

    legs = a.rows("synopsis.distance")
    routed = a.nearest(legs, ("sharding.query", "sharding.route"))
    routed = routed[routed >= 0]
    refresh_shards = a.rows("sharding.refresh_shard")
    lookups = extra.get("point_lookups", 0) + extra["batch_unique"]

    out = {
        "service.query_self_us": mean_us("service.query"),
        "service.cache_hit_ratio": extra.get("hits", 0) / lookups if lookups else 0.0,
        "batching.self_us_per_pair": total_s("batching.run") * 1e6 / extra["batch_queries"] if extra["batch_queries"] else 0.0,
        "batching.unique_ratio": extra["batch_unique"] / extra["batch_queries"] if extra["batch_queries"] else 0.0,
        "sharding.legs_per_miss": len(routed) / len(np.unique(routed)) if len(routed) else 0.0,
        "sharding.query_self_us": mean_us("sharding.query"),
        "sharding.refresh_shard_self_s": total_s("sharding.refresh_shard") / len(refresh_shards) if len(refresh_shards) else 0.0,
        "synopsis.distance_calls": float(len(legs)),
        "synopsis.distance_us": mean_us("synopsis.distance"),
        "ledger.spends": counters.get("ledger.spends", 0),
        "ledger.refused": counters.get("ledger.refused", 0),
        "mechanisms.builds": float(len(a.rows("mechanisms.build"))),
        "mechanisms.build_s": total_s("mechanisms.build", "mechanisms.validate"),
        "apsp.hub_build_s": total_s("apsp.release", "apsp.hub_build"),
        "apsp.estimate_calls": float(len(a.rows("apsp.estimate"))),
        "apsp.estimate_us": mean_us("apsp.estimate"),
        "apsp.clamped_share": clamped,
        "engine.sweep_calls": float(len(a.rows("engine.sweep"))),
        "engine.sweep_rows": counters.get("engine.sweep_rows", 0),
        "engine.sweep_s": total_s("engine.sweep"),
        "engine.matrix_mb": counters.get("engine.matrix_mb", 0),
        "engine.csr_compile_s": total_s("engine.csr_compile"),
        "rng.laplace_draws": counters.get("rng.laplace_draws", 0),
        "rng.laplace_s": total_s("rng.laplace"),
        "graphs.reweight_s": total_s("graphs.reweight"),
        "telemetry.us_per_query": float(a.attributed[telemetry_rows[in_queries]].sum()) / 1e3 / queries if queries else 0.0,
        "telemetry.share": telemetry_serving / serving_ns if serving_ns else 0.0,
        "telemetry.flight_captures": counters.get("telemetry.flight_captures", 0),
        "telemetry.audit_records": counters.get("telemetry.audit_records", 0),
        "trace.overhead_share": extra["overhead_share"],
    }
    for kind in OP_KINDS:
        _, total = totals.get(kind, (0, 0))
        for layer in trace.LAYERS:
            out[f"share.{kind}.{layer}"] = layers.get(kind, {}).get(layer, 0) / total if total else 0.0
    return {k: float(v) for k, v in out.items()}
