"""Colour-aware bounded simulation (Remark (4) of the paper).

The paper notes that data graphs and patterns can be extended with *edge
colours* to model different relationship types, "to enforce relationships in
a pattern to be mapped to the same relationships in a data graph", and lists
this extension as future work in the conclusion.  This module implements it:

* data edges may carry a colour (:meth:`DataGraph.add_edge` ``color=``);
* pattern edges may carry a colour (:meth:`Pattern.add_edge` ``color=``);
* a coloured pattern edge with bound ``k`` must be mapped to a nonempty path
  of length at most ``k`` **all of whose edges carry that colour** — i.e. a
  bounded path of the colour-restricted subgraph.  Uncoloured pattern edges
  behave exactly as in plain bounded simulation.

:func:`match_colored` computes the maximum colour-aware match by running the
same greatest-fixpoint refinement as Algorithm ``Match`` with one distance
oracle per colour (each built over :meth:`DataGraph.colored_subgraph`).  When
the pattern has no coloured edge the result coincides with
:func:`repro.matching.bounded.match`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.distance.matrix import DistanceMatrix
from repro.distance.oracle import DistanceOracle
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.match_result import MatchResult

__all__ = ["match_colored", "matches_colored", "build_color_oracles", "naive_match_colored"]

OracleFactory = Callable[[DataGraph], DistanceOracle]


def build_color_oracles(
    pattern: Pattern,
    graph: DataGraph,
    oracle_factory: Optional[OracleFactory] = None,
) -> Dict[Any, DistanceOracle]:
    """Build one distance oracle per colour used by the pattern's edges.

    The key ``None`` holds the oracle over the full (colour-agnostic) graph,
    used for uncoloured pattern edges.
    """
    factory: OracleFactory = oracle_factory or DistanceMatrix
    oracles: Dict[Any, DistanceOracle] = {None: factory(graph)}
    for color in pattern.edge_colors():
        oracles[color] = factory(graph.colored_subgraph(color))
    return oracles


def match_colored(
    pattern: Pattern,
    graph: DataGraph,
    oracles: Optional[Dict[Any, DistanceOracle]] = None,
    *,
    oracle_factory: Optional[OracleFactory] = None,
) -> MatchResult:
    """Compute the maximum colour-aware bounded-simulation match.

    Parameters
    ----------
    pattern, graph:
        The pattern (possibly with coloured edges) and the data graph.
    oracles:
        A pre-built ``{color: DistanceOracle}`` mapping (as returned by
        :func:`build_color_oracles`); built on demand when omitted.
    oracle_factory:
        The oracle constructor used when *oracles* is omitted
        (:class:`DistanceMatrix` by default).

    Returns
    -------
    MatchResult
        The maximum match, empty when some pattern node has no match.
    """
    if pattern.number_of_nodes() == 0 or graph.number_of_nodes() == 0:
        return MatchResult.empty(pattern.node_list())
    if oracles is None:
        oracles = build_color_oracles(pattern, graph, oracle_factory)

    mat: Dict[PatternNodeId, Set[NodeId]] = {
        u: {
            v
            for v in graph.nodes()
            if pattern.predicate(u).evaluate(graph.attributes(v))
        }
        for u in pattern.nodes()
    }
    if any(not candidates for candidates in mat.values()):
        return MatchResult.empty(pattern.node_list())

    _refine_colored(pattern, oracles, mat)

    if any(not candidates for candidates in mat.values()):
        return MatchResult.empty(pattern.node_list())
    return MatchResult(mat, pattern_nodes=pattern.node_list())


def matches_colored(pattern: Pattern, graph: DataGraph) -> bool:
    """``True`` when the colour-aware pattern matches the graph."""
    return bool(match_colored(pattern, graph))


def _refine_colored(
    pattern: Pattern,
    oracles: Dict[Any, DistanceOracle],
    mat: Dict[PatternNodeId, Set[NodeId]],
) -> None:
    """Worklist refinement where each pattern edge uses its colour's oracle."""
    support_count: Dict[Tuple[PatternNodeId, PatternNodeId], Dict[NodeId, int]] = {}
    removal_list: List[Tuple[PatternNodeId, NodeId]] = []
    removed: Set[Tuple[PatternNodeId, NodeId]] = set()

    def oracle_for(u: PatternNodeId, u_child: PatternNodeId) -> DistanceOracle:
        return oracles[pattern.color(u, u_child)]

    for u, u_child in pattern.edges():
        bound = pattern.bound(u, u_child)
        oracle = oracle_for(u, u_child)
        child_candidates = mat[u_child]
        counts: Dict[NodeId, int] = {}
        for v in mat[u]:
            count = len(oracle.descendants_within(v, bound) & child_candidates)
            counts[v] = count
            if count == 0 and (u, v) not in removed:
                removed.add((u, v))
                removal_list.append((u, v))
        support_count[(u, u_child)] = counts

    index = 0
    while index < len(removal_list):
        u, v = removal_list[index]
        index += 1
        mat[u].discard(v)
        for u_parent in pattern.predecessors(u):
            bound = pattern.bound(u_parent, u)
            oracle = oracle_for(u_parent, u)
            counts = support_count.get((u_parent, u))
            if counts is None:
                continue
            parent_candidates = mat[u_parent]
            for w in oracle.ancestors_within(v, bound):
                if w not in parent_candidates or w not in counts:
                    continue
                counts[w] -= 1
                if counts[w] == 0 and (u_parent, w) not in removed:
                    removed.add((u_parent, w))
                    removal_list.append((u_parent, w))


def naive_match_colored(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """Transparent fixpoint reference implementation (used by the tests)."""
    subgraphs: Dict[Any, DataGraph] = {None: graph}
    for color in pattern.edge_colors():
        subgraphs[color] = graph.colored_subgraph(color)

    candidates: Dict[PatternNodeId, Set[NodeId]] = {}
    for u in pattern.nodes():
        predicate = pattern.predicate(u)
        candidates[u] = {
            v for v in graph.nodes() if predicate.evaluate(graph.attributes(v))
        }

    changed = True
    while changed:
        changed = False
        for u, u_child in pattern.edges():
            bound = pattern.bound(u, u_child)
            restricted = subgraphs[pattern.color(u, u_child)]
            child_candidates = candidates[u_child]
            survivors: Set[NodeId] = set()
            for v in candidates[u]:
                if restricted.descendants_within(v, bound) & child_candidates:
                    survivors.add(v)
            if survivors != candidates[u]:
                candidates[u] = survivors
                changed = True

    if any(not nodes for nodes in candidates.values()):
        return MatchResult.empty(pattern.node_list())
    return MatchResult(candidates, pattern_nodes=pattern.node_list())
