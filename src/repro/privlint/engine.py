"""The privlint analysis pipeline: files -> modules -> rules -> findings.

The engine owns everything rule-independent: discovering source files
(with the ``tests/`` exclusion default), parsing each into a
:class:`ModuleUnit` (AST + import-alias map + per-function ownership
index + suppression table), running a rule pipeline over every unit,
and filtering the suppressed findings out.

Zero dependencies beyond the standard library ``ast`` module — the
analyzer must be runnable in any environment that can run the code it
checks, including the scipy-free CI job.

Fail-closed: a file that cannot be read or parsed raises
:class:`~repro.exceptions.LintError` instead of being skipped, because
a skipped file is an unchecked privacy invariant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import LintError
from .findings import Finding
from .suppressions import is_suppressed, parse_suppressions

__all__ = [
    "FunctionInfo",
    "ModuleUnit",
    "ProjectContext",
    "UnusedIgnore",
    "LintResult",
    "default_package_root",
    "iter_source_files",
    "load_module_unit",
    "run_lint",
]

#: Directory names never descended into when scanning a tree.  The
#: ``tests`` entry is the pre-commit-friendly default: fixtures under a
#: test tree intentionally violate the rules.
EXCLUDED_DIR_NAMES: FrozenSet[str] = frozenset(
    {"tests", "__pycache__", ".git"}
)


def default_package_root() -> Path:
    """The installed ``repro`` package directory (the default scan
    root): the analyzer self-hosts on the package it ships inside."""
    return Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class FunctionInfo:
    """One function definition plus the analysis the rules share.

    ``owned`` holds the AST nodes whose *innermost* enclosing function
    is this one — a nested function's body belongs to the nested
    function, not to its parent — so per-function rules never blame an
    outer function for its inner function's statements.
    """

    node: ast.AST
    qualname: str
    lineno: int
    #: Parameter names of this function alone.
    params: FrozenSet[str]
    #: Parameters visible here including enclosing functions (closures
    #: legitimately draw from an outer function's threaded ``rng``).
    params_chain: FrozenSet[str]
    owned: Tuple[ast.AST, ...]


@dataclass(frozen=True)
class ModuleUnit:
    """One parsed source file, ready for the rule pipeline."""

    path: Path
    #: POSIX display path (stable across checkouts; see ``run_lint``).
    display_path: str
    #: Dotted-module segments of the display path, ``__init__`` dropped
    #: (``("repro", "telemetry", "audit")``).
    segments: Tuple[str, ...]
    #: The *containing package's* segments — for an ``__init__.py``
    #: this is ``segments`` itself (the module IS the package), for an
    #: ordinary module it drops the last segment.  Relative imports
    #: resolve against this, not against ``segments[:-1]``, which is
    #: one level too shallow inside package ``__init__`` modules.
    package: Tuple[str, ...]
    source: str
    tree: ast.Module
    #: Local name -> dotted import source (``np`` -> ``numpy``,
    #: ``default_rng`` -> ``numpy.random.default_rng``).
    import_aliases: Dict[str, str]
    functions: Tuple[FunctionInfo, ...]
    suppressions: Dict[int, FrozenSet[str]]

    def dotted_source(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute/name chain to its dotted import origin.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as
        numpy.  Returns None when the chain does not bottom out in an
        imported name — a local variable that merely shadows a module
        name never matches a banned prefix.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.import_aliases.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))

    def owner_of(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The innermost function owning ``node`` (None at module
        scope)."""
        for info in self.functions:
            if any(owned is node for owned in info.owned):
                return info
        return None


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _argument_names(node: ast.AST) -> FrozenSet[str]:
    args = node.args
    names = [
        a.arg
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
    ]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return frozenset(names)


def _index_functions(tree: ast.Module) -> Tuple[FunctionInfo, ...]:
    """Every function in the module with its owned-node set, computed
    in one DFS that tracks the enclosing class/function stack."""
    infos: List[FunctionInfo] = []

    def walk(
        node: ast.AST,
        qual: Tuple[str, ...],
        chain: Tuple[FrozenSet[str], ...],
        owned_sink: Optional[List[ast.AST]],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                params = _argument_names(child)
                owned: List[ast.AST] = [child]
                child_qual = qual + (child.name,)
                walk(child, child_qual, chain + (params,), owned)
                infos.append(
                    FunctionInfo(
                        node=child,
                        qualname=".".join(child_qual),
                        lineno=child.lineno,
                        params=params,
                        params_chain=frozenset().union(
                            params, *chain
                        ),
                        owned=tuple(owned),
                    )
                )
            else:
                if owned_sink is not None:
                    owned_sink.append(child)
                next_qual = (
                    qual + (child.name,)
                    if isinstance(child, ast.ClassDef)
                    else qual
                )
                walk(child, next_qual, chain, owned_sink)

    walk(tree, (), (), None)
    return tuple(infos)


def _index_imports(
    tree: ast.Module, package: Tuple[str, ...]
) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module.

    Relative imports resolve against the module's containing package
    (``from ..rng import Rng`` inside ``repro.telemetry.audit``
    resolves to ``repro.rng``), so the purity rule can ban by absolute
    prefix — and the call-graph builder can chase re-exports — without
    caring how the import was spelled.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                aliases[local] = origin
                if alias.asname:
                    aliases[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - (node.level - 1)] if (
                    node.level - 1
                ) else package
                prefix = list(base)
                if node.module:
                    prefix += node.module.split(".")
            else:
                prefix = (node.module or "").split(".")
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = ".".join(
                    [p for p in prefix if p] + [alias.name]
                )
    return aliases


def load_module_unit(path: Path, display_path: str) -> ModuleUnit:
    """Parse one source file into a :class:`ModuleUnit` (fail-closed)."""
    try:
        source = path.read_text()
    except OSError as error:
        raise LintError(f"cannot read {display_path}: {error}") from None
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as error:
        raise LintError(
            f"cannot parse {display_path}: {error.msg} "
            f"(line {error.lineno})"
        ) from None
    parts = Path(display_path).with_suffix("").parts
    segments = tuple(p for p in parts if p != "__init__")
    package = (
        segments
        if parts and parts[-1] == "__init__"
        else segments[:-1]
    )
    return ModuleUnit(
        path=path,
        display_path=display_path,
        segments=segments,
        package=package,
        source=source,
        tree=tree,
        import_aliases=_index_imports(tree, package),
        functions=_index_functions(tree),
        suppressions=parse_suppressions(source, display_path),
    )


def iter_source_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files and directory trees into a sorted, de-duplicated
    list of ``.py`` files, never descending into
    :data:`EXCLUDED_DIR_NAMES` directories.

    A path that does not exist raises
    :class:`~repro.exceptions.LintError` — a typoed ``--paths`` entry
    must not silently lint nothing.
    """
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw).resolve()
        if path.is_file():
            seen.setdefault(path, None)
            continue
        if not path.is_dir():
            raise LintError(f"lint path does not exist: {raw}")
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            if any(
                part in EXCLUDED_DIR_NAMES for part in relative.parts[:-1]
            ):
                continue
            seen.setdefault(candidate, None)
    return sorted(seen)


@dataclass
class ProjectContext:
    """Project-wide state shared by cross-module rules.

    Per-unit rules see one :class:`ModuleUnit` at a time; rules that
    reason across call boundaries (PL1's taint propagation, PL5's
    budget hygiene) declare ``project = True`` and receive this
    context instead — every parsed unit, the lazily built call graph
    (built at most once per run, shared by all project rules), and the
    suppression-usage ledger behind ``lint --report-unused-ignores``.
    """

    units: Tuple[ModuleUnit, ...]
    package_root: Path
    _callgraph: Optional[object] = None
    _units_by_path: Optional[Dict[str, ModuleUnit]] = None
    _used_suppressions: Set[Tuple[str, int]] = field(
        default_factory=set
    )

    @property
    def callgraph(self):
        if self._callgraph is None:
            from .callgraph import build_call_graph

            self._callgraph = build_call_graph(self.units)
        return self._callgraph

    def unit_for(self, display_path: str) -> Optional[ModuleUnit]:
        if self._units_by_path is None:
            self._units_by_path = {
                unit.display_path: unit for unit in self.units
            }
        return self._units_by_path.get(display_path)

    def mark_suppression_used(self, path: str, line: int) -> None:
        """Record that the ignore comment on ``path:line`` silenced a
        (would-be) finding; unmarked comments surface as unused."""
        self._used_suppressions.add((path, line))

    def suppression_used(self, path: str, line: int) -> bool:
        return (path, line) in self._used_suppressions


@dataclass(frozen=True)
class UnusedIgnore:
    """One inline ignore comment that silenced nothing this run."""

    path: str
    line: int
    rules: Tuple[str, ...]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: unused privlint "
            f"ignore[{','.join(self.rules)}] (suppressed no finding)"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules),
        }


@dataclass(frozen=True)
class LintResult:
    """The outcome of one analyzer run."""

    #: Unsuppressed findings in stable report order.
    findings: Tuple[Finding, ...]
    #: Findings silenced by inline privlint ignore comments.
    suppressed: int
    #: Display paths of every file scanned.
    files: Tuple[str, ...]
    package_root: Path = field(default_factory=default_package_root)
    #: Ignore comments that silenced nothing (dead suppressions).
    unused_ignores: Tuple[UnusedIgnore, ...] = ()
    #: The project context of the run (its units and call graph).
    context: Optional[ProjectContext] = None


def _display_path(path: Path, package_root: Path) -> str:
    """Report path for one scanned file: relative to the
    package root's parent when inside the package (stable across
    checkouts), else to the current directory, else absolute."""
    anchor = package_root.resolve().parent
    try:
        return path.relative_to(anchor).as_posix()
    except ValueError:
        pass
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[object]] = None,
    package_root: Optional[Path] = None,
) -> LintResult:
    """Run the rule pipeline over a set of paths.

    ``paths`` defaults to the whole installed ``repro`` package (the
    self-hosting scan CI gates on); directories are walked with the
    ``tests/`` exclusion default.  ``rules`` defaults to
    :data:`repro.privlint.rules.DEFAULT_RULES`.
    """
    if rules is None:
        from .rules import DEFAULT_RULES

        rules = DEFAULT_RULES
    root = (
        Path(package_root).resolve()
        if package_root is not None
        else default_package_root()
    )
    scan = [root] if paths is None else [Path(p) for p in paths]
    units: List[ModuleUnit] = []
    for path in iter_source_files(scan):
        units.append(load_module_unit(path, _display_path(path, root)))
    context = ProjectContext(
        units=tuple(units), package_root=root
    )
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        if getattr(rule, "project", False):
            produced = rule.check_project(context)
        else:
            produced = (
                finding
                for unit in units
                for finding in rule.check(unit)
            )
        for finding in produced:
            unit = context.unit_for(finding.path)
            if unit is not None and is_suppressed(
                finding.rule, finding.line, unit.suppressions
            ):
                suppressed += 1
                context.mark_suppression_used(
                    finding.path, finding.line
                )
            else:
                findings.append(finding)
    unused: List[UnusedIgnore] = []
    for unit in units:
        for line, names in unit.suppressions.items():
            if not context.suppression_used(unit.display_path, line):
                unused.append(
                    UnusedIgnore(
                        path=unit.display_path,
                        line=line,
                        rules=tuple(sorted(names)),
                    )
                )
    unused.sort(key=lambda u: (u.path, u.line))
    findings.sort(key=lambda f: f.sort_key)
    return LintResult(
        findings=tuple(findings),
        suppressed=suppressed,
        files=tuple(unit.display_path for unit in units),
        package_root=root,
        unused_ignores=tuple(unused),
        context=context,
    )
