"""Bounded-simulation matching: the paper's core contribution.

* :func:`match` — Algorithm ``Match`` (Theorem 3.1);
* :func:`graph_simulation` — plain graph simulation (the bound-1 special case);
* :class:`IncrementalMatcher` — ``Match⁻``, ``Match⁺`` and ``IncMatch`` (Section 4);
* :func:`build_result_graph` — result graphs (Section 2.2);
* :class:`MatchResult`, :class:`AffectedArea` — result and affected-area types.
"""

from repro.matching.affected import AffectedArea
from repro.matching.bounded import (
    candidate_bits,
    match,
    naive_match,
    refine_bits_to_fixpoint,
)
from repro.matching.colored import build_color_oracles, match_colored, matches_colored
from repro.matching.incremental import IncrementalMatcher
from repro.matching.match_result import MatchResult
from repro.matching.result_graph import ResultGraph, build_result_graph
from repro.matching.simulation import graph_simulation, simulates

__all__ = [
    "match",
    "naive_match",
    "candidate_bits",
    "refine_bits_to_fixpoint",
    "match_colored",
    "matches_colored",
    "build_color_oracles",
    "graph_simulation",
    "simulates",
    "MatchResult",
    "ResultGraph",
    "build_result_graph",
    "IncrementalMatcher",
    "AffectedArea",
]
