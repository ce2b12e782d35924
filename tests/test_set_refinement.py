"""Differential tests of the set-at-a-time route (the session's default).

``MatchSession.match``/``simulate`` without an explicit oracle refine whole
candidate sets with one reverse level search per pattern edge
(:func:`repro.matching.bounded.refine_sets_to_fixpoint`).  Every answer is
checked against :func:`~repro.matching.bounded.naive_match`, the paper's
definition, and against the counting route of a session opened with an
explicit :class:`~repro.distance.bfs.BFSDistanceOracle`, on seeded random
graphs of up to 25 nodes: self-loops, cyclic patterns, bounds 1/2/3/``*``
and candidate sets that are empty from the start.  A snapshot patched
between two queries must be answered afresh: the cross-query
``anc_b`` memo never answers across a patch.
"""

from __future__ import annotations

import random

import pytest

from repro.distance.bfs import BFSDistanceOracle
from repro.engine.session import MatchSession
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.bounded import ancestors_of_set, naive_match

LABELS = ["A", "B", "C"]
BOUNDS = [1, 2, 3, "*"]
SEEDS_PER_CASE = 40


def random_graph(rng: random.Random) -> DataGraph:
    """Up to 25 labelled nodes; edges may be self-loops."""
    graph = DataGraph(name="set-refinement")
    num_nodes = rng.randint(1, 25)
    for node in range(num_nodes):
        graph.add_node(node, label=rng.choice(LABELS))
    for _ in range(rng.randint(0, 3 * num_nodes)):
        graph.add_edge(
            rng.randrange(num_nodes), rng.randrange(num_nodes), strict=False
        )
    return graph


def random_pattern(rng: random.Random) -> Pattern:
    """A connected pattern, often cyclic, sometimes with a pattern self-loop.

    About one pattern in eight carries a label no data node has, so some
    candidate set is empty from the start.
    """
    pattern = Pattern(name="set-refinement-pattern")
    num_nodes = rng.randint(1, 4)
    labels = LABELS + ["D"] if rng.random() < 0.125 else LABELS
    for node in range(num_nodes):
        pattern.add_node(node, rng.choice(labels))
    for node in range(1, num_nodes):
        pattern.add_edge(rng.randrange(node), node, rng.choice(BOUNDS))
    for _ in range(rng.randint(0, 2)):
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if not pattern.has_edge(source, target):
            pattern.add_edge(source, target, rng.choice(BOUNDS))
    return pattern


def unit_bounds(pattern: Pattern) -> Pattern:
    """*pattern* with every bound set to 1 (graph simulation's semantics)."""
    unit = Pattern(name=pattern.name)
    for node in pattern.nodes():
        unit.add_node(node, pattern.predicate(node))
    for source, target in pattern.edge_list():
        unit.add_edge(source, target, 1)
    return unit


def counting_route(graph: DataGraph) -> MatchSession:
    copy = graph.copy()
    return MatchSession(copy, oracle=BFSDistanceOracle(copy))


@pytest.mark.parametrize("case", range(10))
def test_match_and_simulate_agree_with_naive_and_counting(case):
    rng = random.Random(1000 + case)
    for _ in range(SEEDS_PER_CASE):
        graph = random_graph(rng)
        session = MatchSession(graph)
        counting = counting_route(graph)
        for _ in range(3):
            pattern = random_pattern(rng)
            expected = naive_match(pattern, graph)
            assert session.match(pattern) == expected
            assert counting.match(pattern) == expected
            expected_sim = naive_match(unit_bounds(pattern), graph)
            assert session.simulate(pattern) == expected_sim
            assert counting.simulate(pattern) == expected_sim


@pytest.mark.parametrize("case", range(5))
def test_patched_snapshot_is_answered_afresh(case):
    rng = random.Random(2000 + case)
    for _ in range(SEEDS_PER_CASE):
        graph = random_graph(rng)
        session = MatchSession(graph)
        patterns = [random_pattern(rng) for _ in range(3)]
        for pattern in patterns:
            assert session.match(pattern) == naive_match(pattern, graph)
        nodes = graph.node_list()
        for _ in range(rng.randint(1, 4)):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if graph.has_edge(source, target):
                assert session.patch_edge_delete(source, target)
            else:
                assert session.patch_edge_insert(source, target)
        # The same patterns again: their child sets and bounds repeat, so a
        # memo that survived the patch would answer from the old edges.
        for pattern in patterns:
            expected = naive_match(pattern, graph)
            assert session.match(pattern) == expected
            assert counting_route(graph).match(pattern) == expected
            assert session.simulate(pattern) == naive_match(unit_bounds(pattern), graph)


def test_memo_answers_repeated_child_sets():
    """A repeated ``(bound, child set)`` is answered from the session memo."""
    graph = DataGraph()
    for node, label in enumerate("ABAB"):
        graph.add_node(node, label=label)
    for source, target in ((0, 1), (1, 2), (2, 3), (3, 0)):
        graph.add_edge(source, target)
    pattern = Pattern()
    pattern.add_node("x", "A")
    pattern.add_node("y", "B")
    pattern.add_edge("x", "y", 2)
    session = MatchSession(graph)
    session.match(pattern)
    cache = session._ancestor_cache
    entries = len(cache)
    assert entries >= 1
    other = Pattern(name="same edge type")
    other.add_node("p", "A")
    other.add_node("q", "B")
    other.add_edge("p", "q", 2)
    assert session.match(other) == naive_match(other, graph)
    assert len(cache) == entries
    session.patch_edge_delete(3, 0)
    assert len(cache) == 0


@pytest.mark.parametrize("bound", [1, 2, 3, None])
def test_ancestors_of_set_is_the_union_of_ancestor_balls(bound):
    rng = random.Random(3000 + (bound or 0))
    for _ in range(60):
        graph = random_graph(rng)
        compiled = compile_graph(graph)
        targets = rng.getrandbits(compiled.num_nodes)
        expected = set()
        for index in range(compiled.num_nodes):
            if targets >> index & 1:
                expected |= graph.ancestors_within(compiled.node_of(index), bound)
        assert compiled.decode(ancestors_of_set(compiled, targets, bound)) == expected
