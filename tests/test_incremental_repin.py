"""Re-pins of standing IncMatch matchers that share one session.

Two standing matchers on one :class:`~repro.engine.MatchSession` take
turns applying batches, as ``update_stream`` does: each batch moves the
snapshot under the other matcher, which re-pins at its next operation and
rebuilds its sets with ``refine_sets_to_fixpoint(stop_when_empty=False)``.
After every batch both maintained matches are checked against
:func:`~repro.matching.bounded.naive_match`.  One pattern's relation
empties, stays empty across a re-pin, and comes back through an
insertion: a re-pin that stopped at the first empty set would keep
partial sets and answer wrongly once the relation returns.

The flag itself is checked against the counting route:
``refine_sets_to_fixpoint(stop_when_empty=False)`` and
``refine_bits_to_fixpoint`` reach the same set for every pattern node,
empty sets included.
"""

from __future__ import annotations

import random

import pytest

from repro.distance.incremental import EdgeUpdate
from repro.engine.session import MatchSession
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.bounded import (
    candidate_bits,
    naive_match,
    refine_bits_to_fixpoint,
    refine_sets_to_fixpoint,
)

LABELS = ["A", "B", "C"]


def chain_pattern() -> Pattern:
    """``A -> B -> C``, every bound 1."""
    pattern = Pattern()
    for node in LABELS:
        pattern.add_node(node, node)
    pattern.add_edge("A", "B", 1)
    pattern.add_edge("B", "C", 1)
    return pattern


def two_hop_pattern() -> Pattern:
    """``A -> C`` within 2 hops."""
    pattern = Pattern()
    pattern.add_node("A", "A")
    pattern.add_node("C", "C")
    pattern.add_edge("A", "C", 2)
    return pattern


def emptying_graph() -> DataGraph:
    """``a1 -> b1 -> c1`` is the chain's only witness; ``a3 -> b2`` is a dead end."""
    graph = DataGraph(name="repin")
    for node, label in [
        ("a1", "A"), ("a2", "A"), ("a3", "A"),
        ("b1", "B"), ("b2", "B"),
        ("c1", "C"), ("c2", "C"),
        ("x", "X"),
    ]:
        graph.add_node(node, label=label)
    for source, target in [("a1", "b1"), ("b1", "c1"), ("a3", "b2"), ("a2", "x"), ("x", "c2")]:
        graph.add_edge(source, target)
    return graph


def assert_both_maintained(session, graph, patterns):
    for pattern in patterns:
        result, _ = session.apply_updates(pattern, [])
        assert result == naive_match(pattern, graph.copy())


class TestTakingTurns:
    def test_relation_empties_across_a_repin_and_comes_back(self):
        graph = emptying_graph()
        session = MatchSession(graph)
        chain, two_hop = chain_pattern(), two_hop_pattern()
        assert_both_maintained(session, graph, (chain, two_hop))
        turns = [
            (chain, [EdgeUpdate.delete("b1", "c1")]),  # the chain empties
            (two_hop, [EdgeUpdate.delete("x", "c2")]),  # moves the snapshot
            (two_hop, [EdgeUpdate.insert("a2", "c1")]),
            (chain, [EdgeUpdate.insert("b1", "c1")]),  # and comes back
            (two_hop, [EdgeUpdate.delete("a1", "b1")]),
            (chain, [EdgeUpdate.insert("a1", "b1")]),
        ]
        emptied = False
        for pattern, batch in turns:
            result, _ = session.apply_updates(pattern, batch)
            assert result == naive_match(pattern, graph.copy())
            emptied |= pattern is chain and result.is_empty
            assert_both_maintained(session, graph, (chain, two_hop))
        assert emptied
        assert not session.apply_updates(chain, [])[0].is_empty

    @pytest.mark.parametrize("seed", range(8))
    def test_random_batches_in_turns(self, seed):
        rng = random.Random(seed)
        graph = DataGraph(name="repin-random")
        num_nodes = rng.randint(4, 14)
        for node in range(num_nodes):
            graph.add_node(node, label=rng.choice(LABELS))
        for _ in range(rng.randint(num_nodes, 3 * num_nodes)):
            graph.add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes), strict=False)
        session = MatchSession(graph)
        patterns = (chain_pattern(), two_hop_pattern())
        for turn in range(12):
            pattern = patterns[turn % 2]
            batch = []
            for _ in range(rng.randint(1, 4)):
                source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
                if graph.has_edge(source, target):
                    batch.append(EdgeUpdate.delete(source, target))
                else:
                    batch.append(EdgeUpdate.insert(source, target))
            result, _ = session.apply_updates(pattern, batch)
            assert result == naive_match(pattern, graph.copy())
            assert_both_maintained(session, graph, patterns)


def random_pattern(rng: random.Random) -> Pattern:
    """Up to four nodes over three labels; cycles and self-loops allowed."""
    pattern = Pattern()
    size = rng.randint(1, 4)
    for node in range(size):
        pattern.add_node(f"u{node}", rng.choice(LABELS))
    for _ in range(rng.randint(0, size + 2)):
        source, target = f"u{rng.randrange(size)}", f"u{rng.randrange(size)}"
        if not pattern.has_edge(source, target):
            pattern.add_edge(source, target, rng.choice([1, 2, 3, None]))
    return pattern


class TestRunPastEmptySets:
    @pytest.mark.parametrize("seed", range(60))
    def test_sets_equal_the_counting_route_per_pattern_node(self, seed):
        rng = random.Random(seed)
        graph = DataGraph(name="fixpoint")
        num_nodes = rng.randint(1, 16)
        for node in range(num_nodes):
            graph.add_node(node, label=rng.choice(LABELS))
        for _ in range(rng.randint(0, 3 * num_nodes)):
            graph.add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes), strict=False)
        pattern = random_pattern(rng)
        compiled = compile_graph(graph)
        candidates = candidate_bits(pattern, compiled, out_degree_filter=False)
        by_sets = dict(candidates)
        nonempty = refine_sets_to_fixpoint(pattern, compiled, by_sets, stop_when_empty=False)
        by_counts = dict(candidates)
        refine_bits_to_fixpoint(pattern, compiled.distance_store(), compiled, by_counts)
        assert by_sets == by_counts
        assert nonempty == all(by_counts.values())

    def test_an_empty_set_does_not_stop_the_refinement(self):
        # mat(B) empties; mat(A) must still be refined past it.
        graph = emptying_graph()
        graph.remove_edge("b1", "c1")
        pattern = chain_pattern()
        compiled = compile_graph(graph)
        sets = candidate_bits(pattern, compiled, out_degree_filter=False)
        assert refine_sets_to_fixpoint(pattern, compiled, sets, stop_when_empty=False) is False
        assert sets == {"A": 0, "B": 0, "C": compiled.encode({"c1", "c2"})}
