"""The PL1-PL4 rule families of the privlint analyzer.

Each rule is a stateless object with a ``name``, a one-line
``summary``, and a ``check(unit)`` generator yielding
:class:`~repro.privlint.findings.Finding` records.  The rules encode
the three cross-cutting invariants of the Sealfon private-edge-weight
model as machine-checked properties:

* **PL1 — privacy taint.**  Topology is public, weights are private:
  a function that reads private weight state (``WeightedGraph``
  weight accessors, ``CSRGraph.weights``, ``with_weights``) and
  returns or serializes a derived value must pass through a
  recognized noising sink (``laplace_*`` draws, a registry/synopsis
  ``build``, a ledger ``spend``) on the way out.  Exact-recomputation
  kernels that are only ever invoked *under* a release are carried on
  the maintained :data:`PL1_ALLOWLIST`.
* **PL2 — RNG discipline.**  All randomness flows through an
  explicitly threaded :class:`~repro.rng.Rng`: no global-state
  ``random.*`` / ``numpy.random.*`` calls, no entropy-seeded
  ``default_rng()``, no wall-clock-seeded generators, and any
  function that draws noise receives its generator as a parameter
  (its own or an enclosing function's) or via constructor-threaded
  attribute state.
* **PL3 — observational purity.**  Telemetry observes, never acts:
  no import from ``repro.telemetry.*`` into the modules that draw
  noise or mutate ledgers, and no ``rng`` parameter in any telemetry
  signature.
* **PL4 — concurrency/determinism hygiene.**  Dual-lock acquisitions
  order by ``id`` so cross-merges cannot deadlock, and wall-clock
  reads (``time.time``, ``datetime.now``) never feed seeded or
  deterministic outputs — the monotonic clock is for latencies,
  wall-clock timestamps are for observational records and carry an
  inline justification.
* **PL5 — budget hygiene.**  Inside the serving layer, every path
  from an epoch entry point (``refresh``, ``fresh_batch``, a
  ``build*`` builder) to a raw noise draw (``laplace_*`` /
  ``perturb_*``) must traverse a :class:`~repro.serving.ledger.
  BudgetLedger` ``spend`` first — "spend first, release second" as a
  machine-checked property instead of a comment.

PL2-PL4 are single-function (a finding is explainable by reading one
function).  PL1 and PL5 are *inter-procedural*: they propagate
per-function summaries over the project call graph
(:mod:`repro.privlint.callgraph`) to a bounded, cycle-safe fixpoint,
so a helper that returns a raw weight-derived value is exonerated
when every caller noises it — and flagged when one leaks it.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import SPEND_NAMES, CallGraph, FunctionNode, is_draw_name
from .engine import ModuleUnit, ProjectContext
from .findings import Finding
from .suppressions import is_suppressed

__all__ = [
    "Rule",
    "PL1WeightTaint",
    "PL2RngDiscipline",
    "PL3ObservationalPurity",
    "PL4DeterminismHygiene",
    "PL5BudgetHygiene",
    "DEFAULT_RULES",
    "PL1_ALLOWLIST",
    "PL5_SERVING_GLOBS",
    "PL5_RELEASE_PRIMITIVES",
]

class Rule:
    """Base class for privlint rules (stateless; yields findings).

    Per-unit rules implement ``check(unit)``.  Rules that reason
    across call boundaries set ``project = True`` and implement
    ``check_project(context)`` instead — the engine hands them the
    shared :class:`~repro.privlint.engine.ProjectContext` once per
    run.
    """

    name: str = "PL0"
    summary: str = ""
    project: bool = False

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(
        self, context: ProjectContext
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: Wall-clock reads (dotted import origins).  ``time.perf_counter`` /
#: ``time.monotonic`` are deliberately absent: the monotonic clock is
#: the blessed way to measure latency.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _is_wallclock_call(unit: ModuleUnit, node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and (unit.dotted_source(node.func) or "") in _WALLCLOCK
    )


def _contains_wallclock(unit: ModuleUnit, node: ast.AST) -> bool:
    return any(_is_wallclock_call(unit, n) for n in ast.walk(node))


# ----------------------------------------------------------------------
# PL1 — privacy taint (inter-procedural)
# ----------------------------------------------------------------------

#: Maintained allowlist (display-path globs): modules that read and
#: hand out weight state *by design*, where the release boundary is
#: structurally above them.  Since the call-graph pass the
#: ``engine``/``algorithms`` layers are no longer here — the analyzer
#: now *proves* their exact kernels flow into noising callers instead
#: of trusting a glob.  Entries are reviewed in PRs like any other
#: code change; new modules are NOT allowlisted by default.
PL1_ALLOWLIST: Tuple[str, ...] = (
    # The graph substrate: these modules *define* the weight state and
    # its accessors; every consumer sits above them.
    "repro/graphs/*",
    # Workload generators *construct* the synthetic private input
    # (road networks, congestion scenarios) and compute ground-truth
    # error for the replay harness — upstream of any release.
    "repro/workloads/*",
    # Error metrics compare released values against exact ground
    # truth; they never leave the evaluation harness.
    "repro/analysis/errors.py",
)


class PL1WeightTaint(Rule):
    """Weight-derived values must leave the program through a noising
    sink — checked across call boundaries.

    The analysis runs over the project call graph in three bounded
    fixpoints (each pass flips only monotone bits, so recursion and
    mutual recursion terminate):

    1. **Taint.**  A function is tainted if it reads weight state
       directly, or calls a tainted function that *forwards* its
       taint (returns a value, does not noise it, and is not a
       trusted boundary — an allowlisted module or a def-line
       ``ignore[PL1]``).
    2. **Candidates.**  A tainted function that escapes (returns or
       serializes) without noising and is not trusted is a candidate
       leak — its raw value is in *someone's* hands.
    3. **Leaks.**  A candidate actually leaks if its value reaches
       the outside raw: it serializes, it has no caller (the raw
       return IS the API surface), or some caller re-exposes it and
       leaks in turn.  Candidates whose every caller noises, is
       trusted, or keeps the value internal are exonerated — this is
       what lets the exact ``engine``/``algorithms`` kernels come off
       the allowlist.

    Only *direct readers* are flagged (one finding per chain root);
    multi-hop leaks carry a witness call chain in the message.
    """

    name = "PL1"
    project = True
    summary = (
        "function reads private weight state and the derived value "
        "escapes, across all call paths, without a recognized "
        "noising sink"
    )

    #: Witness chains longer than this render with an ellipsis.
    _CHAIN_DISPLAY_CAP = 4

    def __init__(
        self, allowlist: Optional[Sequence[str]] = None
    ) -> None:
        self.allowlist: Tuple[str, ...] = (
            tuple(allowlist) if allowlist is not None else PL1_ALLOWLIST
        )

    def _allowlisted(self, display_path: str) -> bool:
        return any(
            fnmatch(display_path, pattern)
            for pattern in self.allowlist
        )

    # -- the three fixpoints --------------------------------------

    def _trusted(
        self, context: ProjectContext, with_suppressions: bool
    ) -> FrozenSet[str]:
        graph: CallGraph = context.callgraph
        trusted: Set[str] = set()
        for node in graph.nodes.values():
            if self._allowlisted(node.path):
                trusted.add(node.node_id)
                continue
            if not with_suppressions:
                continue
            unit = context.unit_for(node.path)
            if unit is not None and is_suppressed(
                self.name, node.lineno, unit.suppressions
            ):
                trusted.add(node.node_id)
        return frozenset(trusted)

    def _analyze(
        self, graph: CallGraph, trusted: FrozenSet[str]
    ) -> Tuple[Set[str], Set[str]]:
        """(candidates, leaking) under one trust assignment."""
        nodes = graph.nodes
        # 1. Taint: seeded by direct readers, propagated caller-ward
        # through functions that forward raw derived values.
        tainted: Set[str] = {
            nid for nid, node in nodes.items() if node.reads_weights
        }
        changed = True
        while changed:
            changed = False
            for nid, node in nodes.items():
                if nid in tainted:
                    continue
                for site in node.calls:
                    if any(
                        t in tainted and self._forwards(nodes[t], trusted)
                        for t in site.targets
                    ):
                        tainted.add(nid)
                        changed = True
                        break
        # 2. Candidates: tainted escapers with no noising sink.
        candidates: Set[str] = {
            nid
            for nid in tainted
            if nid not in trusted
            and nodes[nid].escapes
            and not nodes[nid].noises
        }
        # 3. Leaks: seeded by candidates whose value reaches the
        # outside unconditionally (serializers, caller-less roots),
        # propagated callee-ward — a candidate leaks when a caller
        # that re-exposes its value leaks.
        leaking: Set[str] = {
            nid
            for nid in candidates
            if nodes[nid].serializes or not graph.callers_of(nid)
        }
        changed = True
        while changed:
            changed = False
            for nid in candidates:
                if nid in leaking:
                    continue
                if any(
                    caller in leaking
                    for caller in graph.callers_of(nid)
                ):
                    leaking.add(nid)
                    changed = True
        return candidates, leaking

    @staticmethod
    def _forwards(node: FunctionNode, trusted: FrozenSet[str]) -> bool:
        """Does a tainted ``node`` pass raw taint to its callers?"""
        return (
            node.returns_value
            and not node.noises
            and node.node_id not in trusted
        )

    def _witness_chain(
        self, graph: CallGraph, root: str, leaking: Set[str]
    ) -> List[str]:
        """A leak path from ``root`` caller-ward: greedy, min-id at
        each hop, cycle-safe via the visited set."""
        chain = [root]
        visited = {root}
        current = root
        while True:
            node = graph.nodes[current]
            if node.serializes or not graph.callers_of(current):
                break
            upstream = sorted(
                c
                for c in graph.callers_of(current)
                if c in leaking and c not in visited
            )
            if not upstream:
                break
            current = upstream[0]
            visited.add(current)
            chain.append(current)
        return chain

    def _render_chain(
        self, graph: CallGraph, chain: List[str]
    ) -> str:
        shown = chain[: self._CHAIN_DISPLAY_CAP]
        parts = [graph.nodes[nid].qualname for nid in shown]
        if len(chain) > len(shown):
            parts.append("...")
        return " -> ".join(parts)

    def _finding(
        self,
        graph: CallGraph,
        nid: str,
        leaking: Set[str],
    ) -> Finding:
        node = graph.nodes[nid]
        escape = "returns" if node.returns_value else "serializes/logs"
        message = (
            f"function '{node.qualname}' reads private "
            f"weight state ({', '.join(node.reads)}) "
            f"and {escape} a derived value without a "
            "recognized noising sink (laplace_*, registry "
            "build, ledger spend)"
        )
        chain = self._witness_chain(graph, nid, leaking)
        if len(chain) > 1:
            message += (
                "; the raw value leaks through call chain "
                f"{self._render_chain(graph, chain)}"
            )
        return Finding(
            rule=self.name,
            path=node.path,
            line=node.lineno,
            message=message,
            severity="error",
        )

    def check_project(
        self, context: ProjectContext
    ) -> Iterator[Finding]:
        graph: CallGraph = context.callgraph
        trusted = self._trusted(context, with_suppressions=True)
        _, leaking = self._analyze(graph, trusted)
        for nid in sorted(leaking):
            if graph.nodes[nid].reads_weights:
                yield self._finding(graph, nid, leaking)
        # Trust-blind pass: decide which def-line ignore[PL1]
        # comments actually changed the outcome.  Suppressed roots
        # are re-yielded (the engine counts and marks them);
        # suppressed mid-chain boundaries are marked used directly.
        blind_trusted = self._trusted(context, with_suppressions=False)
        suppressed_boundaries = trusted - blind_trusted
        if not suppressed_boundaries:
            return
        blind_candidates, blind_leaking = self._analyze(
            graph, blind_trusted
        )
        for nid in sorted(blind_leaking):
            node = graph.nodes[nid]
            if nid not in suppressed_boundaries:
                continue
            if node.reads_weights:
                yield self._finding(graph, nid, blind_leaking)
            else:
                context.mark_suppression_used(node.path, node.lineno)
        # A suppressed boundary that never leaks itself can still be
        # load-bearing: it absorbs a chain that would otherwise leak.
        for nid in sorted(suppressed_boundaries - blind_leaking):
            if nid in blind_candidates:
                node = graph.nodes[nid]
                context.mark_suppression_used(node.path, node.lineno)


# ----------------------------------------------------------------------
# PL2 — RNG discipline
# ----------------------------------------------------------------------

#: numpy.random constructors that carry *explicit* state and are
#: therefore fine (the library's own Rng wraps default_rng(seed)).
_EXPLICIT_STATE_CTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Noise-drawing methods whose receiver must be a threaded generator.
_NOISE_DRAWS = frozenset(
    {"laplace", "laplace_vector", "normal", "exponential"}
)


class PL2RngDiscipline(Rule):
    """All randomness flows through an explicitly threaded ``Rng``."""

    name = "PL2"
    summary = (
        "global-state / entropy-seeded / wall-clock-seeded randomness, "
        "or a noise draw whose rng was not threaded as a parameter"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = unit.dotted_source(node.func)
            if dotted is not None:
                yield from self._check_dotted(unit, node, dotted)
            yield from self._check_draw(unit, node)

    def _check_dotted(
        self, unit: ModuleUnit, node: ast.Call, dotted: str
    ) -> Iterator[Finding]:
        if dotted.startswith("random."):
            yield Finding(
                rule=self.name,
                path=unit.display_path,
                line=node.lineno,
                message=(
                    f"global-state stdlib randomness '{dotted}': all "
                    "randomness must flow through a threaded "
                    "repro.rng.Rng"
                ),
            )
            return
        if dotted.startswith("numpy.random."):
            leaf = dotted.rsplit(".", 1)[1]
            if leaf not in _EXPLICIT_STATE_CTORS:
                yield Finding(
                    rule=self.name,
                    path=unit.display_path,
                    line=node.lineno,
                    message=(
                        f"global-state numpy randomness '{dotted}': "
                        "draw from a threaded repro.rng.Rng instead"
                    ),
                )
                return
        seeded_ctor = dotted.endswith(".default_rng") or dotted in (
            "numpy.random.default_rng",
        )
        if seeded_ctor or dotted.rsplit(".", 1)[-1] == "Rng":
            if not node.args and not node.keywords and seeded_ctor:
                yield Finding(
                    rule=self.name,
                    path=unit.display_path,
                    line=node.lineno,
                    message=(
                        f"bare '{dotted}()' draws OS entropy: seed "
                        "explicitly (or accept an Rng parameter) so "
                        "runs are reproducible"
                    ),
                )
            elif any(
                _contains_wallclock(unit, arg)
                for arg in list(node.args)
                + [kw.value for kw in node.keywords]
            ):
                yield Finding(
                    rule=self.name,
                    path=unit.display_path,
                    line=node.lineno,
                    message=(
                        f"wall-clock-seeded generator '{dotted}(...)': "
                        "time-derived seeds are unreproducible; thread "
                        "an explicit seed or Rng"
                    ),
                )

    def _check_draw(
        self, unit: ModuleUnit, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _NOISE_DRAWS
            and isinstance(func.value, ast.Name)
        ):
            # Attribute receivers (self._rng.laplace) are constructor-
            # threaded state, whose constructor is checked in turn.
            return
        receiver = func.value.id
        owner = unit.owner_of(node)
        if owner is None:
            yield Finding(
                rule=self.name,
                path=unit.display_path,
                line=node.lineno,
                message=(
                    f"module-level noise draw '{receiver}."
                    f"{func.attr}(...)': noise may only be drawn "
                    "inside functions that receive an rng parameter"
                ),
            )
            return
        if (
            receiver in owner.params_chain
            or "rng" in owner.params_chain
        ):
            return
        yield Finding(
            rule=self.name,
            path=unit.display_path,
            line=node.lineno,
            message=(
                f"function '{owner.qualname}' draws noise via "
                f"'{receiver}.{func.attr}(...)' but neither "
                f"'{receiver}' nor 'rng' arrives as a parameter: "
                "thread the generator explicitly"
            ),
        )


# ----------------------------------------------------------------------
# PL3 — observational purity
# ----------------------------------------------------------------------

#: Module segments a telemetry module may never import from: the
#: modules that draw noise (rng, dp, core, apsp, mechanisms) or mutate
#: ledgers (serving).
_PL3_BANNED_SEGMENTS = frozenset(
    {"rng", "dp", "serving", "core", "apsp", "mechanisms"}
)


class PL3ObservationalPurity(Rule):
    """Telemetry observes; it never draws noise or spends budget."""

    name = "PL3"
    summary = (
        "telemetry module imports a noise/ledger module, or a "
        "telemetry signature takes an rng"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if "telemetry" not in unit.segments:
            return
        yield from self._check_imports(unit)
        for info in unit.functions:
            if "rng" in info.params:
                yield Finding(
                    rule=self.name,
                    path=unit.display_path,
                    line=info.lineno,
                    message=(
                        f"telemetry function '{info.qualname}' takes "
                        "an 'rng' parameter: telemetry is purely "
                        "observational and never touches randomness"
                    ),
                )

    def _check_imports(self, unit: ModuleUnit) -> Iterator[Finding]:
        package = unit.package
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_origin(
                        unit, node.lineno, alias.name.split(".")
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    drop = node.level - 1
                    base = list(
                        package[: len(package) - drop]
                        if drop
                        else package
                    )
                else:
                    base = []
                if node.module:
                    base += node.module.split(".")
                for alias in node.names:
                    origin = base + (
                        [alias.name] if alias.name != "*" else []
                    )
                    yield from self._check_origin(
                        unit, node.lineno, origin
                    )

    def _check_origin(
        self, unit: ModuleUnit, lineno: int, origin: Sequence[str]
    ) -> Iterator[Finding]:
        segments = [s for s in origin if s]
        if "telemetry" in segments:
            return
        banned = [s for s in segments if s in _PL3_BANNED_SEGMENTS]
        if banned:
            yield Finding(
                rule=self.name,
                path=unit.display_path,
                line=lineno,
                message=(
                    f"telemetry module imports "
                    f"'{'.'.join(segments)}' (noise/ledger module "
                    f"'{banned[0]}'): telemetry must stay purely "
                    "observational"
                ),
            )


# ----------------------------------------------------------------------
# PL4 — concurrency/determinism hygiene
# ----------------------------------------------------------------------


def _is_lockish(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and "lock" in node.attr.lower()


class PL4DeterminismHygiene(Rule):
    """Id-ordered dual locking; wall clocks never feed deterministic
    outputs."""

    name = "PL4"
    summary = (
        "dual-lock acquisition without id-ordering, or a wall-clock "
        "read (time.time/datetime.now) outside latency measurement"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if _is_wallclock_call(unit, node):
                dotted = unit.dotted_source(node.func)
                yield Finding(
                    rule=self.name,
                    path=unit.display_path,
                    line=node.lineno,
                    message=(
                        f"wall-clock read '{dotted}()': derive "
                        "latencies from time.perf_counter() and keep "
                        "wall timestamps out of seeded/deterministic "
                        "outputs (observational timestamps get an "
                        "inline justification)"
                    ),
                    severity="warning",
                )
            elif isinstance(node, ast.With) and len(node.items) >= 2:
                yield from self._check_dual_lock(unit, node)

    def _check_dual_lock(
        self, unit: ModuleUnit, node: ast.With
    ) -> Iterator[Finding]:
        locks = [
            item.context_expr
            for item in node.items
            if _is_lockish(item.context_expr)
        ]
        if len(locks) < 2:
            return
        owner = unit.owner_of(node)
        scope: ast.AST = owner.node if owner is not None else unit.tree
        # Evidence of deterministic ordering: the function sorts or
        # compares by id() somewhere before taking both locks.
        orders_by_id = any(
            isinstance(sub, ast.Name) and sub.id == "id"
            for sub in ast.walk(scope)
        )
        if orders_by_id:
            return
        where = (
            f"function '{owner.qualname}'"
            if owner is not None
            else "module scope"
        )
        yield Finding(
            rule=self.name,
            path=unit.display_path,
            line=node.lineno,
            message=(
                f"{where} acquires two locks in one with-statement "
                "without id-ordering: sort the lock holders by id() "
                "first so concurrent cross-acquisitions cannot "
                "deadlock"
            ),
            severity="error",
        )


# ----------------------------------------------------------------------
# PL5 — budget hygiene (inter-procedural)
# ----------------------------------------------------------------------

#: Display-path globs selecting the serving layer, where the ledger
#: discipline applies.  Test fixtures under ``*/serving/`` match too,
#: by design.
PL5_SERVING_GLOBS: Tuple[str, ...] = ("*serving/*",)

#: Serving modules that ARE the release primitives: their ``build*``
#: functions draw the noise a caller has already paid for, so they are
#: not epoch entry points themselves — the budget obligation sits with
#: every caller, which the ``unguarded`` summary propagates.
PL5_RELEASE_PRIMITIVES: Tuple[str, ...] = (
    "repro/serving/synopsis.py",
)

#: Bare names / prefixes that make a serving function an epoch entry
#: point: synopsis refreshes, batch construction, builders.
PL5_ENTRY_NAMES: FrozenSet[str] = frozenset(
    {"refresh", "refresh_shard", "fresh_batch"}
)
PL5_ENTRY_PREFIXES: Tuple[str, ...] = ("build_", "_build")


class PL5BudgetHygiene(Rule):
    """Spend first, release second — every serving-epoch path to a
    noise draw must traverse a budget ledger ``spend``.

    Two bounded fixpoints over the call graph:

    * ``spends(F)``: F calls a ledger ``spend``, directly or
      transitively.
    * ``unguarded(F)``: entered with no prior spend, F can reach a
      raw ``laplace_*``/``perturb_*`` draw before any spend.
      Computed by walking F's call sites in program order with a
      ``spent`` flag: a site is a violation when the flag is clear
      and the site is itself a draw or any resolved target is
      unguarded; the flag sets once a site spends (draw risk is
      evaluated *before* the same site's spend, so a callee that
      internally spends-then-draws is safe and a draw-then-spend one
      is not).

    An entry point (``refresh``/``fresh_batch``/``build*`` in a
    serving module that is not a release primitive) is flagged iff it
    is unguarded.  Fail-closed: an unresolved draw-named call still
    counts as a draw.
    """

    name = "PL5"
    project = True
    summary = (
        "serving-epoch entry point reaches a raw noise draw "
        "(laplace_*/perturb_*) without a preceding budget ledger "
        "spend"
    )

    def __init__(
        self,
        serving_globs: Optional[Sequence[str]] = None,
        primitive_globs: Optional[Sequence[str]] = None,
    ) -> None:
        self.serving_globs: Tuple[str, ...] = (
            tuple(serving_globs)
            if serving_globs is not None
            else PL5_SERVING_GLOBS
        )
        self.primitive_globs: Tuple[str, ...] = (
            tuple(primitive_globs)
            if primitive_globs is not None
            else PL5_RELEASE_PRIMITIVES
        )

    def _is_entry(self, node: FunctionNode) -> bool:
        if not any(
            fnmatch(node.path, g) for g in self.serving_globs
        ):
            return False
        if any(fnmatch(node.path, g) for g in self.primitive_globs):
            return False
        return node.name in PL5_ENTRY_NAMES or any(
            node.name.startswith(p) for p in PL5_ENTRY_PREFIXES
        )

    @staticmethod
    def _spends_fixpoint(graph: CallGraph) -> Set[str]:
        spends = {
            nid
            for nid, node in graph.nodes.items()
            if node.spends
        }
        changed = True
        while changed:
            changed = False
            for nid, node in graph.nodes.items():
                if nid in spends:
                    continue
                if any(
                    t in spends
                    for site in node.calls
                    for t in site.targets
                ):
                    spends.add(nid)
                    changed = True
        return spends

    @staticmethod
    def _unguarded_fixpoint(
        graph: CallGraph, spends: Set[str]
    ) -> Dict[str, Optional[Tuple[int, str]]]:
        """node id -> first offending (line, call name), or None when
        the function is guarded."""
        unguarded: Dict[str, Optional[Tuple[int, str]]] = {
            nid: None for nid in graph.nodes
        }

        def first_violation(
            node: FunctionNode,
        ) -> Optional[Tuple[int, str]]:
            spent = False
            for site in node.calls:  # already in program order
                if not spent:
                    if is_draw_name(site.name):
                        return (site.lineno, site.name)
                    for target in site.targets:
                        if unguarded[target] is not None:
                            return (site.lineno, site.name)
                if site.name in SPEND_NAMES or any(
                    t in spends for t in site.targets
                ):
                    spent = True
            return None

        changed = True
        while changed:
            changed = False
            for nid, node in graph.nodes.items():
                if unguarded[nid] is not None:
                    continue
                violation = first_violation(node)
                if violation is not None:
                    unguarded[nid] = violation
                    changed = True
        return unguarded

    def check_project(
        self, context: ProjectContext
    ) -> Iterator[Finding]:
        graph: CallGraph = context.callgraph
        spends = self._spends_fixpoint(graph)
        unguarded = self._unguarded_fixpoint(graph, spends)
        for nid in sorted(graph.nodes):
            node = graph.nodes[nid]
            if not self._is_entry(node):
                continue
            violation = unguarded[nid]
            if violation is None:
                continue
            _, call_name = violation
            yield Finding(
                rule=self.name,
                path=node.path,
                line=node.lineno,
                message=(
                    f"serving-epoch entry point '{node.qualname}' "
                    f"reaches a raw noise draw via '{call_name}' "
                    "without a preceding budget ledger spend: spend "
                    "first, release second"
                ),
                severity="error",
            )


#: The shipped rule pipeline, in rule-id order.
DEFAULT_RULES: Tuple[Rule, ...] = (
    PL1WeightTaint(),
    PL2RngDiscipline(),
    PL3ObservationalPurity(),
    PL4DeterminismHygiene(),
    PL5BudgetHygiene(),
)
