"""repro.engine — the vectorized CSR graph kernels.

A thin compute layer between the graph model (:mod:`repro.graphs`) and
every mechanism that post-processes noisy weights with an *exact*
shortest-path computation.  Three pieces:

* :mod:`repro.engine.csr` — :class:`CSRGraph`, a frozen
  integer-indexed compilation of a
  :class:`~repro.graphs.graph.WeightedGraph` (kept on the graph until
  it changes, one structure per topology, cheaply re-weightable);
* :mod:`repro.engine.kernels` — multi-source distances (scipy's C
  Dijkstra, or a vectorized relaxation without scipy) and the
  profiler-gated ``engine.*`` kernel spans;
* :mod:`repro.engine.frontier` — level-synchronous breadth-first
  search from chunks of sources (hop balls, BFS trees, reachability,
  weak connectivity), touching only the vertices it reaches.

There is one exact-distance engine.
:func:`repro.algorithms.all_pairs_dijkstra` is one multi-source sweep
of these kernels; :func:`repro.algorithms.dijkstra` is one heap
search over the graph's own adjacency and compiles nothing.  Both
return bit-identical distances.
"""

from . import kernels
from .csr import CSRGraph
from .kernels import kernel_span

__all__ = [
    "CSRGraph",
    "kernels",
    "kernel_span",
]
