"""Serialization for graphs and weight functions.

Two formats are supported:

* a JSON document capturing topology + weights + directedness, for
  round-tripping whole graphs, and
* a plain edge-list text format (``u v weight`` per line) for interop
  with external tools.

Vertex labels survive JSON round-trips when they are strings, numbers
or (nested) lists/tuples; tuples are restored as tuples so grid
vertices ``(r, c)`` round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

from .. import documents
from ..exceptions import GraphError
from .graph import WeightedGraph

__all__ = [
    "graph_to_json",
    "graph_from_json",
    "save_graph",
    "load_graph",
    "write_edge_list",
    "read_edge_list",
]

_GRAPH_FORMAT = "repro-graph"
_GRAPH_VERSION = 1


def _encode_vertex(v: Any) -> Any:
    if isinstance(v, tuple):
        return {"__tuple__": [_encode_vertex(item) for item in v]}
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise GraphError(
        f"vertex {v!r} of type {type(v).__name__} is not JSON-serializable"
    )


def _decode_vertex(v: Any) -> Any:
    if isinstance(v, dict) and "__tuple__" in v:
        return tuple(_decode_vertex(item) for item in v["__tuple__"])
    return v


def graph_to_json(graph: WeightedGraph) -> str:
    """Serialize a graph (topology + weights) to a JSON string."""
    return json.dumps(
        documents.new(
            _GRAPH_FORMAT,
            _GRAPH_VERSION,
            directed=graph.directed,
            vertices=[_encode_vertex(v) for v in graph.vertices()],
            edges=[
                [_encode_vertex(u), _encode_vertex(v), w]
                for u, v, w in graph.edges()
            ],
        )
    )


def graph_from_json(text: str) -> WeightedGraph:
    """Deserialize a graph from :func:`graph_to_json` output."""
    document = documents.parse(
        text, _GRAPH_FORMAT, _GRAPH_VERSION, GraphError, "graph document"
    )
    with documents.decoding(GraphError, "graph document"):
        graph = WeightedGraph(directed=bool(document["directed"]))
        for v in document["vertices"]:
            graph.add_vertex(_decode_vertex(v))
        for u, v, w in document["edges"]:
            graph.add_edge(_decode_vertex(u), _decode_vertex(v), float(w))
    return graph


def save_graph(graph: WeightedGraph, path: str | Path) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(graph_to_json(graph))


def load_graph(path: str | Path) -> WeightedGraph:
    """Read a graph from a JSON file."""
    return graph_from_json(Path(path).read_text())


def write_edge_list(graph: WeightedGraph, stream: IO[str]) -> None:
    """Write ``u v weight`` lines (vertex labels via ``repr``-safe str).

    Only graphs with string/int vertex labels containing no whitespace
    can round-trip through this format; use JSON otherwise.
    """
    for u, v, w in graph.edges():
        for label in (u, v):
            if not isinstance(label, (str, int)):
                raise GraphError(
                    f"edge-list format requires str/int vertices, got {label!r}"
                )
            if isinstance(label, str) and any(c.isspace() for c in label):
                raise GraphError(
                    f"vertex label {label!r} contains whitespace"
                )
        stream.write(f"{u} {v} {w}\n")


def read_edge_list(
    stream: IO[str], directed: bool = False, int_vertices: bool = True
) -> WeightedGraph:
    """Read ``u v weight`` lines into a graph.

    With ``int_vertices`` (default) labels are parsed as ints; otherwise
    they remain strings.
    """
    graph = WeightedGraph(directed=directed)
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(
                f"line {line_number}: expected 'u v weight', got {line!r}"
            )
        u_raw, v_raw, w_raw = parts
        u: Any = int(u_raw) if int_vertices else u_raw
        v: Any = int(v_raw) if int_vertices else v_raw
        graph.add_edge(u, v, float(w_raw))
    return graph
