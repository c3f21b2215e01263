"""The project-wide call graph behind privlint's inter-procedural rules.

PR 9's PL1 was deliberately single-function: a helper that returns a
raw weight-derived value which its *caller* noises was invisible, so
whole exact-computation layers sat behind a blanket allowlist.  This
module builds the structure that lets the analyzer follow taint
*through* calls instead: one :class:`FunctionNode` per function in the
scanned tree, each carrying

* its **call sites** in source order, resolved against the module's
  import-alias table (``module.fn`` and dotted chains through
  aliases), the enclosing class (``self.method`` / ``cls.method``),
  same-module definitions (bare-name calls, local class
  constructors), one-hop re-exports through package ``__init__``
  modules, and — for attribute calls whose receiver the AST cannot
  name (``mech.build(...)``, ``self._ledger.spend(...)``) — a
  class-hierarchy-style *name join* over every known method with
  that name; and
* its **direct summary bits**: reads private weight state, returns a
  value, serializes/logs, contains a recognized noising sink,
  contains a raw ``laplace_*``/``perturb_*`` noise draw, contains a
  ledger ``spend``.

Rules (PL1 weight taint, PL5 budget hygiene) propagate these bits to a
fixpoint over the caller/callee edges; the fixpoints are bounded by
the node count (each pass flips at least one monotone bit), so the
pass is linear-ish in practice and can never diverge on recursive
cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .engine import FunctionInfo, ModuleUnit

__all__ = [
    "CallSite",
    "FunctionNode",
    "CallGraph",
    "build_call_graph",
    "WEIGHT_READS",
    "NOISE_SINK_PREFIXES",
    "NOISE_SINK_NAMES",
    "OUTPUT_SINKS",
    "DRAW_NAME_PREFIXES",
    "PURE_DRAW_NAMES",
    "SPEND_NAMES",
]

# ----------------------------------------------------------------------
# The taint vocabulary (shared with the rules in rules.py)
# ----------------------------------------------------------------------

#: Attribute names whose access reads private weight state.
WEIGHT_READS: FrozenSet[str] = frozenset(
    {
        "weight",
        "weights",
        "weight_vector",
        "edge_weights",
        "with_weights",
        "total_weight",
        "path_weight",
        "neighbors",
        "predecessors",
    }
)

#: Call targets recognized as noising/accounting sinks: Laplace draws
#: and helpers, mechanism release methods, registry/synopsis builds,
#: ledger spends, and the engine's vectorized perturbation kernels.
NOISE_SINK_PREFIXES: Tuple[str, ...] = (
    "laplace",
    "release_",
    "build_",
    "perturb_",
)
NOISE_SINK_NAMES: FrozenSet[str] = frozenset({"build", "spend"})

#: Call/name targets that move a value out of the process: returns are
#: detected structurally, these cover serialize/log escapes.
OUTPUT_SINKS: FrozenSet[str] = frozenset(
    {"print", "dumps", "dump", "write", "write_text", "writelines"}
)

#: Raw-noise-draw call names for PL5 budget hygiene: an actual Laplace
#: sample or a vectorized perturbation, as opposed to the broader PL1
#: sink set (which also recognizes builds and spends as *boundaries*).
DRAW_NAME_PREFIXES: Tuple[str, ...] = ("laplace", "perturb")

#: ``laplace``-prefixed names that are deterministic arithmetic, not
#: draws: quantiles and tail bounds consume no randomness and spend no
#: budget.
PURE_DRAW_NAMES: FrozenSet[str] = frozenset(
    {"laplace_quantile", "laplace_tail_bound", "laplace_cdf"}
)

#: Call names that account an expenditure against a budget ledger.
SPEND_NAMES: FrozenSet[str] = frozenset({"spend"})


def is_draw_name(name: str) -> bool:
    """True for call names that draw raw noise (PL5 sinks)."""
    return name not in PURE_DRAW_NAMES and any(
        name.startswith(p) for p in DRAW_NAME_PREFIXES
    )


def is_noise_sink_name(name: str) -> bool:
    """True for call names PL1 recognizes as noising/accounting
    boundaries."""
    return name in NOISE_SINK_NAMES or any(
        name.startswith(p) for p in NOISE_SINK_PREFIXES
    )


# ----------------------------------------------------------------------
# Nodes and call sites
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, in source order.

    ``targets`` holds the ids of every :class:`FunctionNode` the call
    may reach (empty when the callee is outside the scanned tree or
    dynamically dispatched through a value the resolver cannot name).
    ``kind`` records *how* the resolution happened — ``local`` (same
    module), ``import`` (through the alias table, including re-export
    hops), ``self`` (enclosing class), ``join`` (name join over every
    known method), or ``opaque`` (unresolved) — so a resolution is
    debuggable.
    """

    lineno: int
    col: int
    name: str
    kind: str
    targets: Tuple[str, ...]


@dataclass
class FunctionNode:
    """One function in the project call graph plus its direct summary.

    The boolean bits are *intra-procedural* facts (what this function
    does in its own body); the rules propagate them along edges.
    """

    node_id: str
    path: str
    module: str
    qualname: str
    name: str
    lineno: int
    calls: Tuple[CallSite, ...] = ()
    #: Weight-state attribute names read directly (empty if none).
    reads: Tuple[str, ...] = ()
    returns_value: bool = False
    serializes: bool = False
    noises: bool = False
    draws: bool = False
    spends: bool = False

    @property
    def reads_weights(self) -> bool:
        return bool(self.reads)

    @property
    def escapes(self) -> bool:
        """The function moves a value out: returns or serializes."""
        return self.returns_value or self.serializes


def _owned_walk(
    info: FunctionInfo, node: ast.AST
) -> Iterator[ast.AST]:
    """Walk ``node`` without crossing into nested function bodies."""
    yield node
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ) and node is not info.node:
        return
    for child in ast.iter_child_nodes(node):
        yield from _owned_walk(info, child)


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare called name: ``f(...)`` -> ``f``, ``x.m(...)`` -> ``m``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


class _Resolver:
    """Resolution tables over one set of parsed modules."""

    def __init__(self, units: Sequence[ModuleUnit]) -> None:
        self.units = tuple(units)
        #: dotted module key -> unit (``__init__`` drops its segment,
        #: so a package's key is the package itself).
        self.unit_by_module: Dict[str, ModuleUnit] = {}
        #: module key -> {qualname or bare symbol -> [node ids]}.
        self.module_defs: Dict[str, Dict[str, List[str]]] = {}
        #: method name -> [node ids] for the global name join.
        self.methods: Dict[str, List[str]] = {}
        #: module key -> {class name -> {method name -> node id}}.
        self.classes: Dict[str, Dict[str, Dict[str, str]]] = {}
        #: function-info id -> enclosing class name (if a method).
        self._class_of: Dict[int, str] = {}
        for unit in self.units:
            self.unit_by_module[".".join(unit.segments)] = unit
        for unit in self.units:
            self._index_unit(unit)

    @staticmethod
    def node_id(unit: ModuleUnit, info: FunctionInfo) -> str:
        return f"{unit.display_path}::{info.qualname}"

    def _index_unit(self, unit: ModuleUnit) -> None:
        mkey = ".".join(unit.segments)
        defs = self.module_defs.setdefault(mkey, {})
        by_ast = {id(info.node): info for info in unit.functions}
        # Class membership from the tree (a qualname alone cannot
        # distinguish ``Class.method`` from ``outer.inner``).
        class_table = self.classes.setdefault(mkey, {})
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = class_table.setdefault(node.name, {})
            for child in node.body:
                info = by_ast.get(id(child))
                if info is not None:
                    nid = self.node_id(unit, info)
                    methods[info.node.name] = nid
                    self._class_of[id(info)] = node.name
        for info in unit.functions:
            nid = self.node_id(unit, info)
            defs.setdefault(info.qualname, []).append(nid)
            if "." not in info.qualname:
                # Module-level function: callable by bare name.
                defs.setdefault(info.qualname, [])
            else:
                name = info.qualname.rsplit(".", 1)[1]
                if not name.startswith("__"):
                    self.methods.setdefault(name, []).append(nid)
        # A local class name resolves to its constructor.
        for cls, methods in class_table.items():
            ctor = methods.get("__init__")
            if ctor is not None:
                defs.setdefault(cls, []).append(ctor)

    def enclosing_class(
        self, unit: ModuleUnit, info: FunctionInfo
    ) -> Optional[str]:
        return self._class_of.get(id(info))

    def resolve_dotted(
        self, dotted: str, _depth: int = 0
    ) -> Tuple[str, ...]:
        """Resolve a dotted import origin to node ids, following
        re-exports through package ``__init__`` alias tables (bounded
        hops, cycle-safe via the depth cap)."""
        if _depth > 8:
            return ()
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mkey = ".".join(parts[:i])
            unit = self.unit_by_module.get(mkey)
            if unit is None:
                continue
            symbol = ".".join(parts[i:])
            hit = self.module_defs.get(mkey, {}).get(symbol)
            if hit:
                return tuple(sorted(hit))
            # Re-export hop: ``from repro.algorithms import dijkstra``
            # where algorithms/__init__ aliases the real module.
            head, rest = parts[i], parts[i + 1 :]
            origin = unit.import_aliases.get(head)
            if origin is not None:
                return self.resolve_dotted(
                    ".".join([origin] + rest), _depth + 1
                )
        return ()

    def resolve_call(
        self, unit: ModuleUnit, info: FunctionInfo, call: ast.Call
    ) -> Optional[CallSite]:
        name = _call_name(call)
        if name is None:
            return None
        mkey = ".".join(unit.segments)
        func = call.func
        lineno = call.lineno
        col = call.col_offset
        if isinstance(func, ast.Name):
            local = self.module_defs.get(mkey, {}).get(name)
            if local:
                return CallSite(
                    lineno, col, name, "local", tuple(sorted(local))
                )
            origin = unit.import_aliases.get(name)
            if origin is not None:
                targets = self.resolve_dotted(origin)
                if targets:
                    return CallSite(
                        lineno, col, name, "import", targets
                    )
            return CallSite(lineno, col, name, "opaque", ())
        # Attribute call.  A chain rooted at an import alias resolves
        # precisely; ``self``/``cls`` resolve through the enclosing
        # class; anything else falls back to the name join.
        dotted = unit.dotted_source(func)
        if dotted is not None:
            targets = self.resolve_dotted(dotted)
            if targets:
                return CallSite(lineno, col, name, "import", targets)
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in (
            "self",
            "cls",
        ):
            cls = self.enclosing_class(unit, info)
            if cls is not None:
                hit = (
                    self.classes.get(mkey, {})
                    .get(cls, {})
                    .get(name)
                )
                if hit is not None:
                    return CallSite(lineno, col, name, "self", (hit,))
        if name.startswith("__"):
            return CallSite(lineno, col, name, "opaque", ())
        joined = self.methods.get(name)
        if joined:
            return CallSite(
                lineno, col, name, "join", tuple(sorted(joined))
            )
        return CallSite(lineno, col, name, "opaque", ())


def _direct_bits(
    info: FunctionInfo,
) -> Tuple[Tuple[str, ...], bool, bool, bool, bool, bool]:
    """(reads, returns_value, serializes, noises, draws, spends) from
    one pass over the function's owned nodes."""
    reads = set()
    returns_value = serializes = noises = draws = spends = False
    for sub in _owned_walk(info, info.node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and sub.attr in WEIGHT_READS
        ):
            reads.add(sub.attr)
        elif isinstance(sub, ast.Return) and not (
            sub.value is None
            or (
                isinstance(sub.value, ast.Constant)
                and sub.value.value is None
            )
        ):
            returns_value = True
        elif isinstance(sub, ast.Call):
            name = _call_name(sub)
            if name is None:
                continue
            if is_noise_sink_name(name):
                noises = True
            elif name in OUTPUT_SINKS:
                serializes = True
            if is_draw_name(name):
                draws = True
            if name in SPEND_NAMES:
                spends = True
    return (
        tuple(sorted(reads)),
        returns_value,
        serializes,
        noises,
        draws,
        spends,
    )


@dataclass
class CallGraph:
    """The resolved project call graph: nodes, forward edges (inside
    each node's ``calls``), and the reverse caller index."""

    nodes: Dict[str, FunctionNode]
    callers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.callers:
            reverse: Dict[str, List[str]] = {}
            for node in self.nodes.values():
                for site in node.calls:
                    for target in site.targets:
                        reverse.setdefault(target, []).append(
                            node.node_id
                        )
            self.callers = {
                nid: tuple(sorted(set(callers)))
                for nid, callers in reverse.items()
            }

    def callers_of(self, node_id: str) -> Tuple[str, ...]:
        return self.callers.get(node_id, ())



def build_call_graph(units: Iterable[ModuleUnit]) -> CallGraph:
    """Construct the project call graph for a set of parsed modules."""
    units = tuple(units)
    resolver = _Resolver(units)
    nodes: Dict[str, FunctionNode] = {}
    for unit in units:
        for info in unit.functions:
            nid = _Resolver.node_id(unit, info)
            sites: List[CallSite] = []
            for sub in _owned_walk(info, info.node):
                if isinstance(sub, ast.Call):
                    site = resolver.resolve_call(unit, info, sub)
                    if site is not None:
                        sites.append(site)
            sites.sort(key=lambda s: (s.lineno, s.col))
            reads, returns_value, serializes, noises, draws, spends = (
                _direct_bits(info)
            )
            nodes[nid] = FunctionNode(
                node_id=nid,
                path=unit.display_path,
                module=".".join(unit.segments),
                qualname=info.qualname,
                name=info.qualname.rsplit(".", 1)[-1],
                lineno=info.lineno,
                calls=tuple(sites),
                reads=reads,
                returns_value=returns_value,
                serializes=serializes,
                noises=noises,
                draws=draws,
                spends=spends,
            )
    return CallGraph(nodes=nodes)
