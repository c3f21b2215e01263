"""repro.engine — the vectorized CSR graph-kernel backend.

A thin compute layer between the graph model (:mod:`repro.graphs`) and
every mechanism that post-processes noisy weights with an *exact*
shortest-path computation.  Four pieces:

* :mod:`repro.engine.csr` — :class:`CSRGraph`, a frozen
  integer-indexed compilation of a
  :class:`~repro.graphs.graph.WeightedGraph` (cached, invalidated by
  the graph's version counters, cheaply re-weightable);
* :mod:`repro.engine.kernels` — index-based Dijkstra, vectorized
  multi-source relaxation, min-plus repeated-squaring APSP, vectorized
  Laplace perturbation, predecessor path reconstruction;
* :mod:`repro.engine.frontier` — level-synchronous breadth-first
  search from chunks of sources (hop balls, BFS trees, reachability,
  weak connectivity), touching only the vertices it reaches;
* :mod:`repro.engine.backends` — the ``"python"`` / ``"numpy"``
  backend registry with an (|V|, |E|) auto-selection heuristic,
  threaded through the public API as ``backend=`` parameters and the
  CLI's ``--backend`` flag.
"""

from . import kernels
from .backends import (
    EngineBackend,
    NumpyBackend,
    PythonBackend,
    auto_select,
    available_backends,
    get_backend,
    kernel_span,
    register_backend,
    resolve_backend,
)
from .csr import CSRGraph, compile_csr

__all__ = [
    "CSRGraph",
    "compile_csr",
    "kernels",
    "EngineBackend",
    "PythonBackend",
    "NumpyBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "auto_select",
    "resolve_backend",
    "kernel_span",
]
