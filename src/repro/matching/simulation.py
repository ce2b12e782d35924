"""Plain graph simulation (Henzinger, Henzinger & Kopke, FOCS 1995).

Graph simulation is the special case of bounded simulation where every
pattern edge carries bound 1 (edge-to-edge mapping) — Remark (2) of
Section 2.2 — and serves as the paper's baseline.

The refinement runs over the compiled snapshot of the graph
(:mod:`repro.graph.compiled`): candidate sets are bitsets over interned
integer ids, and graph simulation *is* bounded simulation with every bound
1, so the two algorithms share one engine.  By default that is the
set-at-a-time refinement of
:func:`repro.matching.bounded.refine_sets_to_fixpoint` with every bound 1
(``mat(u) &= anc_1(mat(u'))``, the predecessors of the child set).  A
session opened with an explicit oracle runs the counting refinement of
:func:`repro.matching.bounded.refine_bits_to_fixpoint` instead, driven by
:data:`ADJACENCY_ORACLE`, whose balls are simply the CSR adjacency rows;
its running time is ``O((|V| + |V_p|)(|E| + |E_p|))`` as cited in the
paper.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.compiled import CompiledGraph
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.match_result import MatchResult

__all__ = ["graph_simulation", "simulates", "ADJACENCY_ORACLE"]


class _AdjacencyOracle:
    """The oracle of plain simulation's counting route: balls are the direct adjacency.

    Graph simulation maps pattern edges to single data edges, so the
    "descendants within the bound" of a candidate are exactly its direct
    successors (a node's own bit appears iff it carries a self-loop — the
    one-hop case of the cycle rule).  Bounds on the pattern are ignored by
    design: this oracle *defines* the edge-to-edge semantics.
    """

    __slots__ = ()

    @staticmethod
    def descendants_within_bits(
        compiled: CompiledGraph, source: int, bound: Optional[int]
    ) -> int:
        return compiled.successors_bits(source)

    @staticmethod
    def ancestors_within_bits(
        compiled: CompiledGraph, target: int, bound: Optional[int]
    ) -> int:
        return compiled.predecessors_bits(target)

    # Adjacency rows are already materialised as cached bitsets on the
    # snapshot, so the "compact" form is the dense row itself.
    @staticmethod
    def descendants_compact(
        compiled: CompiledGraph, source: int, bound: Optional[int]
    ) -> int:
        return compiled.successors_bits(source)


#: The shared bound-1 "oracle" instance (stateless).  The engine layer
#: (:mod:`repro.engine`) uses it for the simulation strategy of a session
#: opened with an explicit oracle.
ADJACENCY_ORACLE = _AdjacencyOracle()


def graph_simulation(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """Compute the maximum graph-simulation relation of *pattern* by *graph*.

    A data node ``v`` simulates a pattern node ``u`` when ``v`` satisfies the
    predicate of ``u`` and, for every pattern edge ``(u, u')``, some direct
    successor of ``v`` simulates ``u'``.  The returned relation is empty when
    some pattern node has no simulating data node.
    """
    # A throwaway engine session: the compiled snapshot still comes from the
    # shared compile cache, and callers serving many patterns should hold a
    # MatchSession themselves to also share ball memos and cached results.
    from repro.engine.session import MatchSession

    return MatchSession(graph).simulate(pattern)


def simulates(pattern: Pattern, graph: DataGraph) -> bool:
    """``True`` when *graph* simulates *pattern* (every pattern node has a match)."""
    return bool(graph_simulation(pattern, graph))
