"""Plain-text table rendering.

The benchmark harness prints paper-style result tables to stdout and
checks them; this renderer keeps the output dependency-free and
deterministic.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "format_value"]


def format_value(value: object, precision: int = 3) -> str:
    """Format one cell: floats with fixed precision, ints plainly."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6 or (value != 0 and abs(value) < 1e-3):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render a fixed-width table with a separator under the header."""
    string_rows: List[List[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    header_row = [str(h) for h in headers]
    for row in string_rows:
        if len(row) != len(header_row):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(header_row)}"
            )
    widths = [
        max(len(header_row[i]), *(len(r[i]) for r in string_rows))
        if string_rows
        else len(header_row[i])
        for i in range(len(header_row))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header_row))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in string_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
