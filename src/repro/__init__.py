"""repro — a reproduction of *Shortest Paths and Distances with
Differential Privacy* (Adam Sealfon, PODS 2016).

The library implements the paper's private-edge-weight model: the graph
topology ``G = (V, E)`` is public and only the weight function
``w : E -> R+`` is private, with weight functions neighboring when
their L1 distance is at most 1 (Definition 2.1).

Quick start::

    from repro import Rng, generators, release_private_paths

    rng = Rng(seed=0)
    graph = generators.grid_graph(8, 8)
    release = release_private_paths(graph, eps=1.0, gamma=0.05, rng=rng)
    path = release.path((0, 0), (7, 7))

Package map:

* :mod:`repro.graphs` — graph/tree/multigraph substrates + generators.
* :mod:`repro.algorithms` — exact shortest paths, MST, matching,
  k-coverings.
* :mod:`repro.engine` — the vectorized CSR graph kernels that run the
  exact shortest-path sweeps on all but tiny inputs.
* :mod:`repro.dp` — Laplace mechanism, composition, budget accounting,
  and every closed-form bound from the paper.
* :mod:`repro.core` — the paper's mechanisms (Algorithms 1–3, the
  bounded-weight and Appendix-B releases, the lower-bound gadgets).
* :mod:`repro.apsp` — the improved all-pairs mechanisms from follow-up
  work (hub-set relays + local balls, plain and over coverings).
* :mod:`repro.mechanisms` — the closed catalog of the six release
  mechanisms a serving tenant can use, each a named entry with
  data-independent eligibility and noise-scale predictions;
  auto-selection is a catalog-wide contest.
* :mod:`repro.telemetry` — observability: the metrics
  registry (counters, gauges, streaming quantile histograms), the span
  tracer, and JSON / Prometheus exporters the serving stack records
  into.
* :mod:`repro.workloads` — synthetic road networks and query workloads.
* :mod:`repro.serving` — the query-serving engine: synopses, budget
  ledger, batch planner, declarative serving configs + the ``serve()``
  factory, rich estimates, and the traffic-replay simulator.
* :mod:`repro.analysis` — error metrics and table rendering.
* :mod:`repro.privlint` — AST-based static analyzer enforcing the
  privacy/determinism invariants (weight taint, RNG discipline,
  observational purity, concurrency hygiene) behind the ``lint`` CLI
  gate.
"""

from .exceptions import (
    BudgetExceededError,
    DisconnectedGraphError,
    EdgeNotFoundError,
    EngineError,
    GraphError,
    MatchingError,
    MechanismError,
    NotATreeError,
    PrivacyError,
    ReproError,
    SynopsisError,
    TelemetryError,
    VertexNotFoundError,
    WeightError,
)
from .rng import Rng
from .engine import CSRGraph
from .graphs import (
    RootedTree,
    WeightedGraph,
    WeightedMultiGraph,
    generators,
)
from .dp import (
    Accountant,
    LaplaceMechanism,
    PrivacyParams,
    advanced_composition,
    basic_composition,
    bounds,
)
from .core import (
    AllPairsAdvancedRelease,
    AllPairsBasicRelease,
    BoundedWeightRelease,
    CycleRelease,
    HistogramRelease,
    MatchingRelease,
    MstRelease,
    PathHierarchyRelease,
    PrivatePathsRelease,
    SyntheticGraphRelease,
    TreeAllPairsRelease,
    TreeSingleSourceRelease,
    lower_bounds,
    private_distance,
    release_bounded_weight,
    release_cycle_distances,
    release_grid_bounded_weight,
    release_histogram_distances,
    release_path_hierarchy,
    release_private_matching,
    release_private_mst,
    release_private_paths,
    release_synthetic_graph,
    release_tree_all_pairs,
    release_tree_single_source,
)
from .apsp import (
    HubSetBoundedRelease,
    HubSetRelease,
)
from .mechanisms import (
    Mechanism,
    MechanismParams,
    auto_select_mechanism,
    available_mechanisms,
    get_mechanism,
)
from .telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    QuantileSketch,
    Telemetry,
    Tracer,
    get_telemetry,
    set_default_telemetry,
    use_telemetry,
)
from .serving import (
    BatchPlanner,
    BatchReport,
    BudgetLedger,
    DistanceService,
    DistanceSynopsis,
    Estimate,
    ServingConfig,
    ShardPlan,
    ShardedDistanceService,
    build_single_pair_synopsis,
    partition_graph,
    replay_rush_hour,
    serve,
    synopsis_from_json,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "DisconnectedGraphError",
    "NotATreeError",
    "WeightError",
    "PrivacyError",
    "BudgetExceededError",
    "MatchingError",
    "EngineError",
    "SynopsisError",
    "MechanismError",
    "TelemetryError",
    # substrates
    "Rng",
    "WeightedGraph",
    "WeightedMultiGraph",
    "RootedTree",
    "generators",
    # engine
    "CSRGraph",
    # dp
    "PrivacyParams",
    "LaplaceMechanism",
    "Accountant",
    "basic_composition",
    "advanced_composition",
    "bounds",
    # core releases
    "private_distance",
    "AllPairsBasicRelease",
    "AllPairsAdvancedRelease",
    "SyntheticGraphRelease",
    "release_synthetic_graph",
    "PrivatePathsRelease",
    "release_private_paths",
    "TreeSingleSourceRelease",
    "TreeAllPairsRelease",
    "release_tree_single_source",
    "release_tree_all_pairs",
    "PathHierarchyRelease",
    "release_path_hierarchy",
    "BoundedWeightRelease",
    "release_bounded_weight",
    "release_grid_bounded_weight",
    "CycleRelease",
    "release_cycle_distances",
    "HistogramRelease",
    "release_histogram_distances",
    "MstRelease",
    "release_private_mst",
    "MatchingRelease",
    "release_private_matching",
    "lower_bounds",
    # improved all-pairs mechanisms
    "HubSetRelease",
    "HubSetBoundedRelease",
    # mechanism catalog
    "Mechanism",
    "MechanismParams",
    "get_mechanism",
    "available_mechanisms",
    "auto_select_mechanism",
    # serving
    "DistanceService",
    "ShardedDistanceService",
    "ServingConfig",
    "serve",
    "Estimate",
    "ShardPlan",
    "partition_graph",
    "BudgetLedger",
    "BatchPlanner",
    "BatchReport",
    "DistanceSynopsis",
    "build_single_pair_synopsis",
    "synopsis_from_json",
    "replay_rush_hour",
    # telemetry
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "QuantileSketch",
    "get_telemetry",
    "set_default_telemetry",
    "use_telemetry",
]
