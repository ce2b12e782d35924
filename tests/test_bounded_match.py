"""Unit tests for Algorithm Match (repro.matching.bounded)."""

from __future__ import annotations

import pytest

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.matrix import DistanceMatrix
from repro.distance.twohop import TwoHopOracle
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.graph.predicates import Predicate
from repro.graph.compiled import compile_graph
from repro.matching.bounded import candidate_bits, match, naive_match


class TestCandidateSets:
    def test_predicate_filtering(self, tiny_graph, tiny_pattern):
        compiled = compile_graph(tiny_graph)
        candidates = candidate_bits(tiny_pattern, compiled)
        assert compiled.decode(candidates["A"]) == {"a"}
        assert compiled.decode(candidates["D"]) == {"d"}

    def test_out_degree_filter(self):
        graph = DataGraph()
        graph.add_node("x", label="A")       # no outgoing edge
        graph.add_node("y", label="A")
        graph.add_node("z", label="B")
        graph.add_edge("y", "z")
        pattern = Pattern()
        pattern.add_node("A", "A")
        pattern.add_node("B", "B")
        pattern.add_edge("A", "B", 1)
        compiled = compile_graph(graph)
        with_filter = candidate_bits(pattern, compiled)
        without_filter = candidate_bits(pattern, compiled, out_degree_filter=False)
        assert compiled.decode(with_filter["A"]) == {"y"}
        assert compiled.decode(without_filter["A"]) == {"x", "y"}


class TestMatchBasics:
    def test_bounded_edge_respects_hops(self, chain_graph):
        pattern = Pattern()
        pattern.add_node("u", "L0")
        pattern.add_node("v", "L3")
        pattern.add_edge("u", "v", 3)
        assert match(pattern, chain_graph)
        pattern.set_bound("u", "v", 2)
        assert not match(pattern, chain_graph)

    def test_unbounded_edge_requires_reachability_only(self, chain_graph):
        pattern = Pattern()
        pattern.add_node("u", "L0")
        pattern.add_node("v", "L4")
        pattern.add_edge("u", "v", "*")
        assert match(pattern, chain_graph)
        reverse = Pattern()
        reverse.add_node("u", "L4")
        reverse.add_node("v", "L0")
        reverse.add_edge("u", "v", "*")
        assert not match(reverse, chain_graph)

    def test_nonempty_path_semantics_for_same_label_edge(self):
        """A pattern edge between two identically labelled nodes needs a real path."""
        graph = DataGraph()
        graph.add_node("only", label="X")
        pattern = Pattern()
        pattern.add_node("a", "X")
        pattern.add_node("b", "X")
        pattern.add_edge("a", "b", 2)
        # Single X node with no self-cycle: no nonempty path X -> X.
        assert not match(pattern, graph)
        graph.add_node("other", label="Y")
        graph.add_edge("only", "other")
        graph.add_edge("other", "only")
        # Now X lies on a 2-cycle, so the same node can serve both ends.
        assert match(pattern, graph)

    def test_empty_pattern_or_graph(self, tiny_graph, tiny_pattern):
        assert match(Pattern(), tiny_graph).is_empty
        assert match(tiny_pattern, DataGraph()).is_empty

    def test_truthiness_agrees_with_naive(self, tiny_graph, tiny_pattern):
        assert bool(match(tiny_pattern, tiny_graph)) is True
        assert bool(naive_match(tiny_pattern, tiny_graph)) is True

    def test_no_candidate_for_some_node(self, tiny_graph):
        pattern = Pattern()
        pattern.add_node("A", "A")
        pattern.add_node("Z", "Z")
        pattern.add_edge("A", "Z", 2)
        assert match(pattern, tiny_graph).is_empty

    def test_result_is_maximum(self, paper_p2_g2):
        """Every pair of the returned relation is genuinely part of a match."""
        pattern, graph = paper_p2_g2
        oracle = DistanceMatrix(graph)
        result = match(pattern, graph, oracle)
        for u, v in result.pairs():
            assert pattern.predicate(u).evaluate(graph.attributes(v))
            for u_child in pattern.successors(u):
                bound = pattern.bound(u, u_child)
                reachable = oracle.descendants_within(v, bound)
                assert reachable & result.matches(u_child), (u, v, u_child)

    def test_predicates_with_comparisons(self):
        graph = DataGraph()
        graph.add_node(1, kind="video", views=900, rate=4.8)
        graph.add_node(2, kind="video", views=100, rate=4.9)
        graph.add_node(3, kind="channel")
        graph.add_edge(1, 3)
        graph.add_edge(2, 3)
        pattern = Pattern()
        pattern.add_node("popular", Predicate.parse("views >= 700 & rate > 4.5"))
        pattern.add_node("chan", Predicate.equals("kind", "channel"))
        pattern.add_edge("popular", "chan", 1)
        result = match(pattern, graph)
        assert result.matches("popular") == {1}

    def test_isolated_pattern_node(self, tiny_graph):
        pattern = Pattern()
        pattern.add_node("A", "A")
        pattern.add_node("lonely", "C")
        pattern.add_edge("A", "lonely", 1)
        # There is no edge requirement on "lonely" itself; it matches c.
        result = match(pattern, tiny_graph)
        assert result.matches("lonely") == {"c"}


class TestOracleVariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_oracles_agree(self, seed):
        graph = random_data_graph(30, 90, num_labels=5, seed=seed)
        generator = PatternGenerator(graph, seed=seed, unbounded_probability=0.2)
        pattern = generator.generate(4, 5, 3)
        reference = match(pattern, graph, DistanceMatrix(graph))
        assert match(pattern, graph, BFSDistanceOracle(graph)) == reference
        assert match(pattern, graph, TwoHopOracle(graph)) == reference

    def test_default_oracle_is_matrix(self, paper_p2_g2):
        pattern, graph = paper_p2_g2
        assert match(pattern, graph) == match(pattern, graph, DistanceMatrix(graph))


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_fixpoint(self, seed):
        graph = random_data_graph(25, 60, num_labels=4, seed=seed)
        generator = PatternGenerator(graph, seed=seed, unbounded_probability=0.25)
        pattern = generator.generate(4, 5, 3)
        assert match(pattern, graph) == naive_match(pattern, graph)

    def test_cyclic_pattern_against_naive(self, paper_p2_g2):
        pattern, graph = paper_p2_g2
        assert match(pattern, graph) == naive_match(pattern, graph)
