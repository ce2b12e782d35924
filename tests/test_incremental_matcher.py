"""Unit tests for the incremental matcher (Match-, Match+, IncMatch)."""

from __future__ import annotations

import random

import pytest

from repro.distance.incremental import EdgeUpdate
from repro.exceptions import CyclicPatternError, IncrementalError
from repro.graph.builders import (
    collaboration_graph,
    collaboration_pattern,
    social_matching_pair,
)
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import match
from repro.matching.incremental import IncrementalMatcher


def simple_dag_pattern() -> Pattern:
    pattern = Pattern()
    pattern.add_node("A", "A")
    pattern.add_node("B", "B")
    pattern.add_node("C", "C")
    pattern.add_edge("A", "B", 2)
    pattern.add_edge("B", "C", 2)
    return pattern


def simple_graph() -> DataGraph:
    graph = DataGraph()
    for node, label in [("a1", "A"), ("a2", "A"), ("b1", "B"), ("b2", "B"), ("c1", "C")]:
        graph.add_node(node, label=label)
    graph.add_edge("a1", "b1")
    graph.add_edge("a2", "b2")
    graph.add_edge("b1", "c1")
    graph.add_edge("b2", "c1")
    return graph


class TestInitialisation:
    def test_initial_match_equals_batch(self):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        assert matcher.match == match(simple_dag_pattern(), simple_graph())

    def test_mat_and_can_partition_candidates(self):
        graph = simple_graph()
        graph.add_node("b3", label="B")  # B candidate with no C successor
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        assert "b3" in matcher.can("B")
        assert "b3" not in matcher.mat("B")
        assert matcher.mat("B") == {"b1", "b2"}

    def test_invalid_on_cyclic_option(self):
        with pytest.raises(IncrementalError):
            IncrementalMatcher(simple_dag_pattern(), simple_graph(), on_cyclic="explode")


class TestDeletion:
    def test_deleting_support_edge_removes_matches(self):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        area = matcher.delete_edge("b2", "c1")
        assert ("B", "b2") in area.removed_matches
        assert ("A", "a2") in area.removed_matches
        assert matcher.match == match(pattern, graph.copy())

    def test_deleting_redundant_edge_changes_nothing(self):
        graph = simple_graph()
        graph.add_edge("a1", "b2")
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        before = matcher.match
        area = matcher.delete_edge("a1", "b2")
        assert not area.removed_matches
        assert matcher.match == before

    def test_delete_missing_edge_noop(self):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        area = matcher.delete_edge("c1", "a1")
        assert area.aff1_size == 0
        assert not area.removed_matches

    def test_match_becomes_empty_but_state_recovers(self):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        matcher.delete_edge("b1", "c1")
        matcher.delete_edge("b2", "c1")
        assert matcher.match.is_empty
        assert match(pattern, graph.copy()).is_empty
        # Re-inserting one support edge revives the match.
        matcher.insert_edge("b1", "c1")
        assert matcher.match == match(pattern, graph.copy())
        assert not matcher.match.is_empty

    def test_deletion_works_with_cyclic_pattern(self):
        pattern, graph = social_matching_pair()  # P1 is cyclic (DM -> A)
        matcher = IncrementalMatcher(pattern, graph)
        matcher.delete_edge("HR_SE", "DM_r")
        assert matcher.match == match(pattern, graph.copy())

    def test_paper_example_g2_minus_db_gen(self):
        """Example 2.2(3) replayed incrementally: deleting (DB, Gen) empties the match."""
        pattern = collaboration_pattern()
        graph = collaboration_graph()
        matcher = IncrementalMatcher(pattern, graph)
        assert matcher.match
        matcher.delete_edge("DB", "Gen")
        assert matcher.match.is_empty


class TestInsertion:
    def test_insertion_adds_matches(self):
        graph = simple_graph()
        graph.add_node("b3", label="B")
        graph.add_node("a3", label="A")
        graph.add_edge("a3", "b3")
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        assert "b3" not in matcher.mat("B")
        area = matcher.insert_edge("b3", "c1")
        assert ("B", "b3") in area.added_matches
        assert ("A", "a3") in area.added_matches
        assert matcher.match == match(pattern, graph.copy())

    def test_insert_existing_edge_noop(self):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        area = matcher.insert_edge("a1", "b1")
        assert area.aff1_size == 0
        assert not area.added_matches

    def test_insertion_with_cyclic_pattern_raises(self):
        pattern, graph = social_matching_pair()
        matcher = IncrementalMatcher(pattern, graph)
        with pytest.raises(CyclicPatternError):
            matcher.insert_edge("DM_l", "HR1")

    def test_insertion_with_cyclic_pattern_recompute_fallback(self):
        pattern, graph = social_matching_pair()
        matcher = IncrementalMatcher(pattern, graph, on_cyclic="recompute")
        matcher.insert_edge("DM_l", "HR1")
        assert matcher.match == match(pattern, graph.copy())

    def test_insertion_enabling_self_cycle_support(self):
        """Gaining a successor can enable a node to support itself via a cycle."""
        graph = DataGraph()
        graph.add_node("x", label="X")
        graph.add_node("y", label="Y")
        graph.add_edge("y", "x")
        pattern = Pattern()
        pattern.add_node("a", "X")
        pattern.add_node("b", "X")
        pattern.add_edge("a", "b", 2)
        matcher = IncrementalMatcher(pattern, graph)
        assert matcher.match.is_empty
        matcher.insert_edge("x", "y")  # creates the 2-cycle x -> y -> x
        assert matcher.match == match(pattern, graph.copy())
        assert not matcher.match.is_empty


class TestBatchIncMatch:
    def test_mixed_batch_agrees_with_recompute(self):
        graph = simple_graph()
        graph.add_node("b3", label="B")
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        updates = [
            EdgeUpdate.delete("b2", "c1"),
            EdgeUpdate.insert("b3", "c1"),
            EdgeUpdate.insert("a2", "b3"),
        ]
        area = matcher.apply(updates)
        assert matcher.match == match(pattern, graph.copy())
        assert area.aff1_size > 0

    def test_batch_with_insertions_requires_dag(self):
        pattern, graph = social_matching_pair()
        matcher = IncrementalMatcher(pattern, graph)
        with pytest.raises(CyclicPatternError):
            matcher.apply([EdgeUpdate.insert("DM_l", "HR1")])

    def test_batch_deletions_only_allowed_for_cyclic_patterns(self):
        pattern, graph = social_matching_pair()
        matcher = IncrementalMatcher(pattern, graph)
        matcher.apply([EdgeUpdate.delete("SE1", "DM_l")])
        assert matcher.match == match(pattern, graph.copy())

    def test_empty_update_list(self):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        before = matcher.match
        area = matcher.apply([])
        assert matcher.match == before
        assert area.total_size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_randomised_batches_agree_with_recompute(self, seed):
        graph = random_data_graph(18, 40, num_labels=4, seed=seed)
        generator = PatternGenerator(graph, seed=seed)
        pattern = generator.generate_dag(4, 5, 3)
        matcher = IncrementalMatcher(pattern, graph)
        rng = random.Random(seed)
        nodes = graph.node_list()
        updates = []
        for source, target in rng.sample(graph.edge_list(), 5):
            updates.append(EdgeUpdate.delete(source, target))
        added = set()
        while len(added) < 5:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source != target and not graph.has_edge(source, target) and (source, target) not in added:
                added.add((source, target))
                updates.append(EdgeUpdate.insert(source, target))
        rng.shuffle(updates)
        matcher.apply(updates)
        assert matcher.match == match(pattern, graph.copy())
