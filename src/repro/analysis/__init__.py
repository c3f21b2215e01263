"""Analysis utilities: error metrics and table rendering for the
benchmark harness's experiment tables."""

from .errors import (
    ErrorSummary,
    summarize_errors,
    distance_errors,
    path_error,
)
from .tables import render_table

__all__ = [
    "ErrorSummary",
    "summarize_errors",
    "distance_errors",
    "path_error",
    "render_table",
]
