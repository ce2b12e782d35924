"""repro — bounded graph simulation.

A from-scratch Python reproduction of *"Graph Pattern Matching: From
Intractable to Polynomial Time"* (Fan, Li, Ma, Tang, Wu, Wu — PVLDB 3(1),
2010): pattern graphs with search conditions and bounded connectivity,
cubic-time bounded-simulation matching, incremental matching under edge
updates, the distance substrates they rely on, the subgraph-isomorphism
baselines of the evaluation, and an experiment harness that regenerates the
paper's tables and figures.

Quickstart
----------
The public query surface is :mod:`repro.api` — a textual pattern DSL,
fluent builders and lazy result views over the compiled engine:

>>> from repro import DataGraph, wrap
>>> g = DataGraph()
>>> g.add_node("boss", label="B")
>>> g.add_node("mgr", label="AM")
>>> g.add_node("worker", label="FW")
>>> g.add_edge("boss", "mgr")
>>> g.add_edge("mgr", "worker")
>>> view = wrap(g).query("(b:B)-[<=2]->(fw:FW)").match()
>>> view["fw"].ids()
['worker']

The algorithmic kernels stay importable (``Pattern``, ``match``,
``MatchSession``, ...) for experiments and algorithm work.
"""

from repro.exceptions import (
    CyclicPatternError,
    DatasetError,
    DistanceOracleError,
    DistanceOverflowError,
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    ExperimentError,
    GraphError,
    IncrementalError,
    InvalidBoundError,
    MatchingError,
    NodeNotFoundError,
    NoMatchError,
    PatternError,
    PredicateError,
    ReproError,
    SerializationError,
)
from repro.distance import (
    INF,
    BFSDistanceOracle,
    DistanceMatrix,
    DistanceOracle,
    EdgeUpdate,
    TwoHopOracle,
)
from repro.graph import (
    UNBOUNDED,
    Atom,
    DataGraph,
    Pattern,
    PatternGenerator,
    Predicate,
    compute_statistics,
    generate_pattern,
    generate_patterns,
    random_data_graph,
    scale_free_graph,
    small_world_graph,
)
from repro.api import (
    API_VERSION,
    FactorisedView,
    GraphHandle,
    NodeProjection,
    PreparedQuery,
    Q,
    QuerySyntaxError,
    ResultView,
    parse_query,
    to_dsl,
    wrap,
)
from repro.engine import MatchSession, QueryPlan
from repro.matching import (
    AffectedArea,
    IncrementalMatcher,
    MatchResult,
    ResultGraph,
    build_result_graph,
    graph_simulation,
    match,
    match_colored,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # public query API (repro.api)
    "API_VERSION",
    "wrap",
    "GraphHandle",
    "PreparedQuery",
    "Q",
    "parse_query",
    "to_dsl",
    "ResultView",
    "NodeProjection",
    "FactorisedView",
    "QuerySyntaxError",
    # graphs & patterns
    "DataGraph",
    "Pattern",
    "Predicate",
    "Atom",
    "UNBOUNDED",
    "random_data_graph",
    "scale_free_graph",
    "small_world_graph",
    "PatternGenerator",
    "generate_pattern",
    "generate_patterns",
    "compute_statistics",
    # distances
    "INF",
    "DistanceOracle",
    "DistanceMatrix",
    "BFSDistanceOracle",
    "TwoHopOracle",
    "EdgeUpdate",
    # engine
    "MatchSession",
    "QueryPlan",
    # matching
    "match",
    "match_colored",
    "graph_simulation",
    "MatchResult",
    "ResultGraph",
    "build_result_graph",
    "IncrementalMatcher",
    "AffectedArea",
    # exceptions
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "DuplicateNodeError",
    "DuplicateEdgeError",
    "PatternError",
    "PredicateError",
    "InvalidBoundError",
    "MatchingError",
    "NoMatchError",
    "IncrementalError",
    "CyclicPatternError",
    "DistanceOracleError",
    "DistanceOverflowError",
    "DatasetError",
    "ExperimentError",
    "SerializationError",
]
