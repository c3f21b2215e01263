"""The serving benchmark's traced runs wrap library functions by their
qualified names (``perfbench.trace.TARGETS``).  A renamed or moved
serving method would only break ``perfbench/run.py --trace 1``, so
this pins that every name still resolves and that uninstalling the
tracer restores the originals."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import trace  # noqa: E402


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_resolves_and_uninstalls():
    targets = trace.targets()
    before = [_resolve(module, qualname) for module, qualname, _, _ in targets]
    uninstall = trace.install(trace.Recorder())
    try:
        wrapped = [
            _resolve(module, qualname) for module, qualname, _, _ in targets
        ]
    finally:
        uninstall()
    after = [_resolve(module, qualname) for module, qualname, _, _ in targets]
    assert len(targets) >= len(trace.TARGETS)
    assert all(callable(fn) for fn in before)
    # Bound classmethods are fresh objects per lookup: compare by ==.
    assert any(w != b for w, b in zip(wrapped, before))
    assert all(a == b for a, b in zip(after, before))
