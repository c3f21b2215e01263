"""Every ``repro-*`` reader fails closed with its own error class.

One table lists each reader with a valid document and the keys the
reader (or the CLI subcommand reading it) indexes.  Each case breaks
the document one way — malformed JSON, empty text, a non-object, a
wrong format or version, one key left out — and the reader must raise
its own :class:`~repro.exceptions.ReproError` subclass, never a bare
``KeyError``, ``TypeError`` or ``JSONDecodeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro import AllPairsBasicRelease, Rng, documents
from repro.cli import main
from repro.exceptions import (
    AuditError,
    GraphError,
    LintError,
    SynopsisError,
    TelemetryError,
)
from repro.graphs import generators
from repro.graphs.io import graph_from_json, graph_to_json, save_graph
from repro.privlint import LintResult, lint_document, validate_lint_report
from repro.privlint.findings import Finding
from repro.serving import DistanceService, ServingConfig, ShardPlan
from repro.serving.routing import partition_graph
from repro.serving.synopsis import (
    AllPairsSynopsis,
    build_single_pair_synopsis,
    synopsis_from_json,
)
from repro.telemetry import (
    AuditLog,
    EventLog,
    FlightRecorder,
    PhaseProfiler,
    Telemetry,
    load_alert_rules,
    profile_document,
    read_audit_log,
    read_event_log,
    validate_flight,
    validate_profile,
    validate_snapshot,
)
from repro.telemetry.monitor import ALERT_RULES_FORMAT, ALERT_RULES_VERSION

GRID = generators.grid_graph(3, 3)


def _synopses() -> Dict[str, object]:
    rng = Rng(0)
    built = [
        build_single_pair_synopsis(GRID, [((0, 0), (2, 2))], 1.0, rng),
        AllPairsSynopsis.from_release(AllPairsBasicRelease(GRID, 1.0, rng)),
        DistanceService(
            generators.random_tree(6, Rng(1)), 1.0, rng, mechanism="tree"
        ).synopsis,
    ]
    for mechanism in ("bounded-weight", "hub-set", "hub-bounded"):
        built.append(
            DistanceService(
                GRID, 1.0, rng, mechanism=mechanism, weight_bound=1.0
            ).synopsis
        )
    return {synopsis.kind: synopsis for synopsis in built}


SYNOPSES = _synopses()


def _snapshot() -> dict:
    telemetry = Telemetry()
    telemetry.registry.counter("queries").inc()
    telemetry.registry.gauge("budget.eps.spent", tenant="t").set(0.5)
    telemetry.registry.histogram("serving.query.latency").observe(1e-5)
    return telemetry.snapshot()


def _profile() -> dict:
    telemetry = Telemetry().with_profiler(
        PhaseProfiler(trace_allocations=False)
    )
    with telemetry.span("phase"):
        pass
    telemetry.profiler.detach()
    return profile_document(telemetry.profiler)


def _flight() -> dict:
    recorder = FlightRecorder(threshold_seconds=1e-9)
    recorder.consider(1e-3, pair=(0, 1), route="point")
    return recorder.to_document()


def _journal(cls, tmp_path: Path) -> List[dict]:
    path = tmp_path / "valid.jsonl"
    with cls(path):
        pass
    return [json.loads(line) for line in path.read_text().splitlines()]


def _read_file(reader: Callable[[Path], object], suffix: str):
    def read(text: str, tmp_path: Path) -> object:
        path = tmp_path / f"doc{suffix}"
        path.write_text(text)
        return reader(path)

    return read


def _read_text(reader: Callable[[str], object]):
    return lambda text, tmp_path: reader(text)


def _read_parsed(reader: Callable[[object], object]):
    return lambda text, tmp_path: reader(json.loads(text))


def _dumps(document: object) -> str:
    if isinstance(document, list):  # a journal: one record per line
        return "\n".join(json.dumps(r) for r in document) + "\n"
    return json.dumps(document)


@dataclass(frozen=True)
class Reader:
    """One ``repro-*`` reader and what it must refuse."""

    name: str
    error: type
    #: A valid document (parsed JSON), given a temporary directory.
    valid: Callable[[Path], object]
    #: The reader, given the document's text and a temporary directory.
    read: Callable[[str, Path], object]
    #: Top-level keys the reader or its CLI subcommand indexes.
    keys: Tuple[str, ...] = ()
    #: Whether the reader parses text itself (the telemetry and lint
    #: validators take parsed documents; their CLIs parse the text,
    #: see ``test_cli_reader_fails_closed``).
    parses: bool = True
    #: Journals: the key of the header record's body.
    header: str | None = None


_HUB = ("num_sites", "hubs", "matrix", "ball", "noise_scale", "pair_count")
_SYNOPSIS_KEYS = {
    "single-pair": ("vertices", "pairs"),
    "all-pairs": ("vertices", "pairs"),
    "tree": ("root", "vertices"),
    "bounded-weight": ("assignment", "covering_pairs", "weight_bound", "k"),
    "hub-set": ("vertices",) + _HUB,
    "hub-bounded": ("vertices", "assignment", "weight_bound", "k") + _HUB,
}

READERS = [
    Reader(
        "graph",
        GraphError,
        lambda tmp: json.loads(graph_to_json(GRID)),
        _read_text(graph_from_json),
        ("directed", "vertices", "edges"),
    ),
    Reader(
        "serving-config",
        GraphError,
        lambda tmp: json.loads(ServingConfig(eps=2.0).to_json()),
        _read_text(ServingConfig.from_json),
    ),
    *(
        Reader(
            f"synopsis-{kind}",
            SynopsisError,
            lambda tmp, kind=kind: json.loads(SYNOPSES[kind].to_json()),
            _read_text(synopsis_from_json),
            ("kind", "eps", "delta") + keys,
        )
        for kind, keys in _SYNOPSIS_KEYS.items()
    ),
    Reader(
        "shard-plan",
        GraphError,
        lambda tmp: json.loads(partition_graph(GRID, 2).to_json()),
        _read_text(ShardPlan.from_json),
        ("num_shards", "assignment"),
    ),
    Reader(
        "telemetry-snapshot",
        TelemetryError,
        lambda tmp: _snapshot(),
        _read_parsed(validate_snapshot),
        ("metrics",),
        parses=False,
    ),
    Reader(
        "profile",
        TelemetryError,
        lambda tmp: _profile(),
        _read_parsed(validate_profile),
        ("total_wall_seconds", "phases"),
        parses=False,
    ),
    Reader(
        "flight",
        TelemetryError,
        lambda tmp: _flight(),
        _read_parsed(validate_flight),
        ("capacity", "considered", "captured", "records"),
        parses=False,
    ),
    Reader(
        "alert-rules",
        TelemetryError,
        lambda tmp: {
            "format": ALERT_RULES_FORMAT,
            "version": ALERT_RULES_VERSION,
            "rules": [{"name": "slow", "metric": "queries"}],
        },
        _read_text(load_alert_rules),
        ("rules",),
    ),
    Reader(
        "lint-report",
        LintError,
        lambda tmp: lint_document(
            LintResult(
                findings=(Finding("PL2", "repro/x.py", 3, "draw"),),
                suppressed=0,
                files=("repro/x.py",),
            )
        ),
        _read_parsed(validate_lint_report),
        ("files_scanned", "findings", "unused_ignores", "summary"),
        parses=False,
    ),
    Reader(
        "audit-log",
        AuditError,
        lambda tmp: _journal(AuditLog, tmp),
        _read_file(read_audit_log, ".jsonl"),
        ("seq", "ts", "kind", "epoch", "tenant", "trace_id", "span_id",
         "payload", "hash"),
        header="payload",
    ),
    Reader(
        "event-log",
        TelemetryError,
        lambda tmp: _journal(EventLog, tmp),
        _read_file(read_event_log, ".jsonl"),
        ("seq", "ts", "event", "tenant", "epoch", "trace_id", "span_id",
         "fields"),
        header="fields",
    ),
]


def _envelope(reader: Reader, document: object) -> dict:
    """The object carrying ``format``/``version``: the document, or a
    journal's header body."""
    if reader.header is None:
        return document
    return document[0][reader.header]


def _holder(reader: Reader, document: object) -> dict:
    """The object whose keys the reader indexes: the document, or a
    journal's header record."""
    return document if reader.header is None else document[0]


def _text(text: str):
    return lambda reader, document: text


def _set(field: str, value: object):
    def breaks(reader: Reader, document: object) -> str:
        _envelope(reader, document)[field] = value
        return _dumps(document)

    return breaks


def _without(key: str):
    def breaks(reader: Reader, document: object) -> str:
        del _holder(reader, document)[key]
        return _dumps(document)

    return breaks


def _cases():
    for reader in READERS:
        if reader.parses:
            yield reader, "malformed-json", _text("{not json")
            yield reader, "empty", _text("")
        yield reader, "non-object", _text("[]")
        yield reader, "wrong-format", _set("format", "repro-other")
        yield reader, "wrong-version", _set("version", 99)
        for key in reader.keys:
            yield reader, f"no-{key}", _without(key)


CASES = list(_cases())


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.name)
def test_valid_documents_read(reader, tmp_path):
    reader.read(_dumps(reader.valid(tmp_path)), tmp_path)


@pytest.mark.parametrize(
    "reader, case, breaks",
    CASES,
    ids=[f"{reader.name}-{case}" for reader, case, _ in CASES],
)
def test_reader_fails_closed(reader, case, breaks, tmp_path):
    text = breaks(reader, reader.valid(tmp_path))
    with pytest.raises(reader.error):
        reader.read(text, tmp_path)


def _drop_first(key: str) -> Callable[[list], None]:
    return lambda rows: rows[0].pop(key)


def _repeat_first_ball_row(document: dict) -> None:
    """Append a copy of the first ball row with another value."""
    lo, hi, value = document["ball"][0]
    document["ball"].append([lo, hi, value + 100.0])


#: Noise scales that misstate a release: with a negative one an
#: estimate's interval has zero width.
_BAD_SCALES = {"negative": -3.0, "nan": float("nan"), "string": "1"}


#: Malformed entries inside a document with a valid envelope.
NESTED = [
    ("graph-short-edge", "graph", lambda d: d["edges"][0].pop()),
    ("graph-unhashable-vertex", "graph", lambda d: d["vertices"].append([1])),
    ("plan-short-row", "shard-plan", lambda d: d["assignment"][0].pop()),
    (
        "synopsis-short-pair",
        "synopsis-all-pairs",
        lambda d: d["pairs"][0].pop(),
    ),
    *(
        (
            f"synopsis-{kind}-noise-scale-{name}",
            f"synopsis-{kind}",
            lambda d, value=value: d.update(noise_scale=value),
        )
        for kind in ("tree", "bounded-weight", "hub-set", "hub-bounded")
        for name, value in _BAD_SCALES.items()
    ),
    (
        "synopsis-hub-set-repeated-ball-row",
        "synopsis-hub-set",
        _repeat_first_ball_row,
    ),
    (
        "synopsis-hub-set-negative-pair-count",
        "synopsis-hub-set",
        lambda d: d.update(pair_count=-5),
    ),
    (
        "config-mistyped-field",
        "serving-config",
        lambda d: d.update(shards="two"),
    ),
    *(
        (
            f"config-{field}-{type(value).__name__}",
            "serving-config",
            lambda d, field=field, value=value: d.update({field: value}),
        )
        for field, value in (
            ("shards", 2.5),
            ("shards", True),
            ("cache_size", 2.5),
            ("cache_size", True),
            ("eps", True),
            ("delta", True),
            ("weight_bound", "3"),
            ("weight_bound", True),
            ("mechanism", 5),
            ("tenant", 5),
            ("audit_log", 5),
            ("event_log", 7),
            ("profile", "yes"),
            ("profile", 1),
        )
    ),
    (
        "snapshot-metric-without-kind",
        "telemetry-snapshot",
        lambda d: _drop_first("kind")(d["metrics"]),
    ),
    (
        "snapshot-gauge-without-value",
        "telemetry-snapshot",
        lambda d: next(
            m for m in d["metrics"] if m["kind"] == "gauge"
        ).pop("value"),
    ),
    (
        "profile-phase-without-wall",
        "profile",
        lambda d: _drop_first("wall_seconds")(d["phases"]),
    ),
    (
        "flight-record-without-route",
        "flight",
        lambda d: _drop_first("route")(d["records"]),
    ),
    (
        "alert-rule-without-name",
        "alert-rules",
        lambda d: _drop_first("name")(d["rules"]),
    ),
    (
        "lint-summary-without-total",
        "lint-report",
        lambda d: d["summary"].pop("total"),
    ),
]

_BY_NAME = {reader.name: reader for reader in READERS}


@pytest.mark.parametrize(
    "name, mutate", [(n, m) for _, n, m in NESTED], ids=[i for i, _, _ in NESTED]
)
def test_malformed_entries_fail_closed(name, mutate, tmp_path):
    reader = _BY_NAME[name]
    document = reader.valid(tmp_path)
    mutate(document)
    with pytest.raises(reader.error):
        reader.read(_dumps(document), tmp_path)


@pytest.mark.parametrize("kind", [int, documents.NUMBER], ids=["int", "number"])
@pytest.mark.parametrize("value", [True, False])
def test_require_refuses_booleans_as_numbers(kind, value):
    # Python's bool is an int, but JSON true/false are not numbers.
    with pytest.raises(GraphError, match="must be .*, got bool"):
        documents.require({"n": value}, GraphError, "doc", {"n": kind})
    assert documents.require({"n": 1}, GraphError, "doc", {"n": kind})
    assert documents.require({"n": value}, GraphError, "doc", {"n": object})


def test_boolean_version_refused():
    document = {"format": "repro-x", "version": True}
    with pytest.raises(GraphError, match="unsupported doc version True"):
        documents.check(document, "repro-x", 1, GraphError, "doc")


# ----------------------------------------------------------------------
# Through the CLI: every subcommand that reads a document exits 2
# ----------------------------------------------------------------------


def _cli_inputs(tmp_path: Path) -> Dict[str, Path]:
    graph = tmp_path / "grid.json"
    save_graph(GRID, graph)
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(json.dumps(_snapshot()))
    return {"graph": graph, "snapshot": snapshot}


_CLI = {
    "info": lambda doc, inputs: ["info", "--graph", doc],
    "serve": lambda doc, inputs: [
        "serve", "--graph", inputs["graph"], "--config", doc,
        "--pairs", "0,0:2,2",
    ],
    "metrics": lambda doc, inputs: ["metrics", "--in", doc],
    "profile": lambda doc, inputs: ["profile", "--in", doc],
    "flight": lambda doc, inputs: ["flight", "--in", doc],
    "report": lambda doc, inputs: [
        "report", "--in", inputs["snapshot"], "--rules", doc,
    ],
    "audit": lambda doc, inputs: ["audit", "verify", "--log", doc],
}


def _run_cli(argv: List[object], capsys) -> Tuple[int, str]:
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_CLI))
@pytest.mark.parametrize(
    "text", ["[]", '{"format": "repro-', ""], ids=["array", "truncated", "empty"]
)
def test_cli_reader_fails_closed(command, text, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code, err = _run_cli(_CLI[command](doc, _cli_inputs(tmp_path)), capsys)
    assert code == 2
    assert "error:" in err


#: Serving config fields of the wrong type: before the reader checked
#: every field's type, the first four ran into a traceback (exit 1)
#: and the others were served (``cache_size`` 2.5 as an LRU bound of
#: 2, ``weight_bound`` true as M = 1).
_MISTYPED_CONFIG = [
    ("shards", 2.5),
    ("weight_bound", "3"),
    ("audit_log", 5),
    ("event_log", 7),
    ("cache_size", 2.5),
    ("weight_bound", True),
    ("tenant", 5),
    ("profile", "yes"),
]


@pytest.mark.parametrize(
    "field, value",
    _MISTYPED_CONFIG,
    ids=[f"{f}-{type(v).__name__}" for f, v in _MISTYPED_CONFIG],
)
def test_cli_serve_refuses_a_mistyped_config_field(
    field, value, tmp_path, capsys
):
    document = _BY_NAME["serving-config"].valid(tmp_path)
    document[field] = value
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(document))
    code, err = _run_cli(_CLI["serve"](doc, _cli_inputs(tmp_path)), capsys)
    assert code == 2
    assert f"error: serving config key {field!r} must be" in err


#: (subcommand argv, reader name, breakage) for fields only a CLI reads.
_CLI_FIELDS = [
    (
        lambda doc, inputs: ["profile", "--in", doc],
        "profile",
        lambda d: d.pop("total_wall_seconds"),
    ),
    (
        lambda doc, inputs: ["flight", "--in", doc],
        "flight",
        lambda d: d.pop("considered"),
    ),
    (
        lambda doc, inputs: ["metrics", "--in", doc, "--tenant", "t"],
        "telemetry-snapshot",
        lambda d: _drop_first("kind")(d["metrics"]),
    ),
    (
        lambda doc, inputs: ["report", "--in", doc],
        "telemetry-snapshot",
        lambda d: _drop_first("kind")(d["metrics"]),
    ),
    (
        lambda doc, inputs: [
            "report", "--in", inputs["snapshot"], "--rules", doc,
        ],
        "alert-rules",
        lambda d: _drop_first("name")(d["rules"]),
    ),
]


@pytest.mark.parametrize(
    "argv, name, mutate",
    _CLI_FIELDS,
    ids=[
        "profile-total",
        "flight-considered",
        "metrics-tenant-kind",
        "report-kind",
        "report-rule-name",
    ],
)
def test_cli_missing_field_exits_two(argv, name, mutate, tmp_path, capsys):
    document = _BY_NAME[name].valid(tmp_path)
    mutate(document)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(document))
    code, err = _run_cli(argv(doc, _cli_inputs(tmp_path)), capsys)
    assert code == 2
    assert "error:" in err
