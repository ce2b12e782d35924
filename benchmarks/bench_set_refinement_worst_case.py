"""Worst case of the set-at-a-time refinement, against the counting route.

The default route of :class:`~repro.engine.MatchSession`
(:func:`~repro.matching.bounded.refine_sets_to_fixpoint`) recomputes
``anc_b(mat(u'))`` with one reverse level search of the whole child set
each time ``mat(u')`` shrinks.  Its adversary is a long refinement cascade
that removes one node per round: here a chain ``0 -> 1 -> ... -> n-1`` with
alternating labels ``a``/``b`` and the 2-cycle pattern ``x:a <-> y:b``.  The
chain's tail node has no successor, so it drops out, which removes its
predecessor in the next round, and so on down the chain until the match is
empty: ``n`` rounds, each a search over what is left of the chain.  The
counting route (an explicit ``oracle=CompiledDistanceMatrix(g)``) decrements
support counts instead.  Both routes are quadratic on this input.

Both sides run a fresh session per call (cold memos) and must return the
same (empty) relation; the default route's time is the better of two runs.
**Gate: default route <= 2.5x the counting route** at ``n = 2000`` for
bounds 1 and 2.  The timings land in pytest-benchmark's ``extra_info``.
"""

from __future__ import annotations

import time

import pytest

from repro.distance.compiled import CompiledDistanceMatrix
from repro.engine import MatchSession
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern

CHAIN_NODES = 2000
MAX_RATIO = 2.5


def alternating_chain(num_nodes: int) -> DataGraph:
    graph = DataGraph(name=f"chain-{num_nodes}")
    for node in range(num_nodes):
        graph.add_node(node, label="a" if node % 2 == 0 else "b")
    for node in range(num_nodes - 1):
        graph.add_edge(node, node + 1)
    return graph


def two_cycle(bound: int) -> Pattern:
    pattern = Pattern(name=f"x:a <-> y:b, bound {bound}")
    pattern.add_node("x", "a")
    pattern.add_node("y", "b")
    pattern.add_edge("x", "y", bound)
    pattern.add_edge("y", "x", bound)
    return pattern


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@pytest.mark.parametrize("bound", [1, 2])
def test_bench_set_refinement_worst_case(benchmark, bound):
    graph = alternating_chain(CHAIN_NODES)
    pattern = two_cycle(bound)

    def default_route():
        return MatchSession(graph).match(pattern)

    def counting_route():
        return MatchSession(graph, oracle=CompiledDistanceMatrix(graph)).match(pattern)

    default_s, default_result = timed(default_route)
    counting_s, counting_result = timed(counting_route)
    assert default_result == counting_result
    assert not default_result
    benchmark.pedantic(default_route, rounds=1, iterations=1)
    default_s = min(default_s, benchmark.stats.stats.min)
    ratio = default_s / counting_s
    benchmark.extra_info["default_route_s"] = round(default_s, 4)
    benchmark.extra_info["counting_route_s"] = round(counting_s, 4)
    benchmark.extra_info["ratio_default_over_counting"] = round(ratio, 2)
    print(
        f"\nchain n={CHAIN_NODES} bound {bound}: default {default_s:.3f} s, "
        f"counting {counting_s:.3f} s, ratio {ratio:.2f} (gate <= {MAX_RATIO})"
    )
    assert ratio <= MAX_RATIO, (
        f"set-at-a-time route {ratio:.2f}x the counting route on the "
        f"alternating chain (bound {bound}); gate is <= {MAX_RATIO}x"
    )
