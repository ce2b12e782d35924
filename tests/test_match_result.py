"""Unit tests for MatchResult (repro.matching.match_result)."""

from __future__ import annotations

import pytest

from repro.graph.pattern import Pattern
from repro.matching.match_result import MatchResult


@pytest.fixture
def simple_pattern():
    pattern = Pattern()
    pattern.add_node("A", "A")
    pattern.add_node("B", "B")
    pattern.add_edge("A", "B", 2)
    return pattern


class TestConstruction:
    def test_total_relation(self):
        result = MatchResult({"A": {"x"}, "B": {"y", "z"}})
        assert result
        assert not result.is_empty
        assert len(result) == 3

    def test_missing_pattern_node_makes_relation_empty(self, simple_pattern):
        result = MatchResult({"A": {"x"}}, pattern_nodes=simple_pattern.node_list())
        assert result.is_empty
        assert len(result) == 0

    def test_empty_set_makes_relation_empty(self):
        result = MatchResult({"A": {"x"}, "B": set()})
        assert result.is_empty

    def test_empty_constructor(self):
        assert MatchResult.empty().is_empty

    def test_from_pairs(self, simple_pattern):
        result = MatchResult.from_pairs(
            [("A", "x"), ("B", "y"), ("A", "w")], pattern=simple_pattern
        )
        assert result.matches("A") == {"x", "w"}
        assert result.matches("B") == {"y"}

    def test_from_pairs_incomplete_is_empty(self, simple_pattern):
        result = MatchResult.from_pairs([("A", "x")], pattern=simple_pattern)
        assert result.is_empty


class TestQueries:
    def test_contains_and_getitem(self):
        result = MatchResult({"A": {"x"}, "B": {"y"}})
        assert result.contains("A", "x")
        assert ("A", "x") in result
        assert not result.contains("A", "y")
        assert result["B"] == {"y"}
        assert result.matches("missing") == frozenset()

    def test_pairs_iteration(self):
        result = MatchResult({"A": {"x"}, "B": {"y", "z"}})
        assert set(result.pairs()) == {("A", "x"), ("B", "y"), ("B", "z")}

    def test_matched_data_nodes_and_pattern_nodes(self):
        result = MatchResult({"A": {"x"}, "B": {"x", "y"}})
        assert result.matched_data_nodes() == {"x", "y"}
        assert result.pattern_nodes() == {"A", "B"}

    def test_counting_helpers(self):
        result = MatchResult({"A": {"x"}, "B": {"y", "z"}})
        assert result.total_matches() == 3
        assert result.matches_per_pattern_node() == {"A": 1, "B": 2}
        assert result.average_matches_per_pattern_node() == pytest.approx(1.5)
        assert MatchResult.empty().average_matches_per_pattern_node() == 0.0

    def test_as_dict(self):
        result = MatchResult({"A": {"x"}})
        assert result.as_dict() == {"A": frozenset({"x"})}


class TestComparison:
    def test_equality_and_hash(self):
        r1 = MatchResult({"A": {"x"}, "B": {"y"}})
        r2 = MatchResult({"B": {"y"}, "A": {"x"}})
        assert r1 == r2
        assert hash(r1) == hash(r2)
        assert r1 != MatchResult({"A": {"x"}, "B": {"z"}})

    def test_subrelation(self):
        small = MatchResult({"A": {"x"}, "B": {"y"}})
        large = MatchResult({"A": {"x", "w"}, "B": {"y"}})
        assert small.is_subrelation_of(large)
        assert not large.is_subrelation_of(small)

    def test_difference_and_symmetric_difference(self):
        r1 = MatchResult({"A": {"x"}, "B": {"y"}})
        r2 = MatchResult({"A": {"x"}, "B": {"z"}})
        assert r1.difference(r2) == {("B", "y")}
        assert r1.symmetric_difference(r2) == {("B", "y"), ("B", "z")}

    def test_repr(self):
        assert "empty" in repr(MatchResult.empty())
        assert "pairs" in repr(MatchResult({"A": {"x"}}))


class TestEmptyPatternNodes:
    def test_empty_carries_pattern_nodes(self):
        result = MatchResult.empty(["A", "B"])
        assert result.is_empty
        assert result.pattern_nodes() == {"A", "B"}

    def test_default_empty_has_no_pattern_nodes(self):
        assert MatchResult.empty().pattern_nodes() == frozenset()

    def test_non_total_mapping_keeps_required_nodes(self):
        result = MatchResult({"A": {"x"}}, pattern_nodes=["A", "B"])
        assert result.is_empty
        assert result.pattern_nodes() == {"A", "B"}

    def test_empty_results_distinguish_pattern_shape(self):
        # Equality covers the pattern node set: an empty answer for a
        # 1-node pattern is not the same answer as for a 2-node pattern.
        assert MatchResult.empty(["A"]) != MatchResult.empty(["B"])
        assert MatchResult.empty(["A", "B", "C"]) != MatchResult.empty(
            ["A", "B", "C", "D", "E"]
        )
        assert MatchResult.empty(["A", "B"]) == MatchResult.empty(["B", "A"])
        assert hash(MatchResult.empty(["A", "B"])) == hash(
            MatchResult.empty(["B", "A"])
        )

    def test_hash_consistent_with_eq_for_empty_results(self):
        # Distinct pattern shapes may not collapse into one set/dict slot.
        results = {MatchResult.empty(["A"]), MatchResult.empty(["A", "B"])}
        assert len(results) == 2

    def test_non_empty_equality_still_ignores_construction_route(self):
        # For total relations the mapping keys ARE the pattern nodes, so
        # passing pattern_nodes explicitly must not change equality.
        implicit = MatchResult({"A": {"x"}})
        explicit = MatchResult({"A": {"x"}}, pattern_nodes=["A"])
        assert implicit == explicit
        assert hash(implicit) == hash(explicit)
