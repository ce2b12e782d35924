"""Unit tests for MatchResult (repro.matching.match_result)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.api.factorised import FactorisedView
from repro.api.results import ResultView
from repro.engine import MatchSession, fork_available
from repro.graph.compiled import compile_graph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
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


# ----------------------------------------------------------------------
# lazy results: MatchResult.from_bits against the eager constructor
# ----------------------------------------------------------------------


@pytest.fixture
def lazy_graph():
    return random_data_graph(200, 600, num_labels=4, seed=31)


def random_sets(compiled, pattern_nodes, rng, *, empty=False):
    """``{u: bitset}`` of random density per pattern node (one 0 if *empty*)."""
    width = compiled.num_nodes
    sets = {}
    for u in pattern_nodes:
        members = rng.sample(range(width), rng.choice((1, 3, width // 20, width // 2)))
        sets[u] = sum(1 << i for i in members)
    if empty:
        sets[pattern_nodes[-1]] = 0
    return sets


def lazy_and_eager(compiled, sets, pattern_nodes):
    lazy = MatchResult.from_bits(sets, compiled, pattern_nodes)
    eager = MatchResult(
        {u: compiled.decode(bits) for u, bits in sets.items()},
        pattern_nodes=pattern_nodes,
    )
    return lazy, eager


def two_node_pattern():
    pattern = Pattern()
    pattern.add_node("a", "A")
    pattern.add_node("b", "B")
    pattern.add_edge("a", "b", 2)
    return pattern


class TestLazyResult:
    @pytest.mark.parametrize("seed", range(6))
    def test_queries_equal_the_eager_result(self, lazy_graph, seed):
        rng = random.Random(seed)
        compiled = compile_graph(lazy_graph)
        pattern_nodes = ["a", "b", "c"]
        sets = random_sets(compiled, pattern_nodes, rng)
        lazy, eager = lazy_and_eager(compiled, sets, pattern_nodes)
        # Sizes first: they must not need a decode.
        assert len(lazy) == len(eager)
        assert lazy.matches_per_pattern_node() == eager.matches_per_pattern_node()
        assert {u: lazy.match_count(u) for u in pattern_nodes} == {
            u: len(eager.matches(u)) for u in pattern_nodes
        }
        assert lazy.average_matches_per_pattern_node() == (
            eager.average_matches_per_pattern_node()
        )
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert set(lazy.pairs()) == set(eager.pairs())
        assert lazy.as_dict() == eager.as_dict()
        assert lazy.matched_data_nodes() == eager.matched_data_nodes()
        assert bool(lazy) and not lazy.is_empty
        members = sorted(eager.matches("a"), key=repr)
        outsider = next(v for v in lazy_graph.nodes() if v not in eager.matches("a"))
        assert lazy.contains("a", members[0]) and ("a", members[-1]) in lazy
        assert not lazy.contains("a", outsider)
        assert not lazy.contains("missing", members[0])
        assert repr(lazy) == repr(eager)

    def test_two_lazy_results_compare_by_their_sets(self, lazy_graph):
        rng = random.Random(5)
        compiled = compile_graph(lazy_graph)
        sets = random_sets(compiled, ["a", "b"], rng)
        first = MatchResult.from_bits(sets, compiled, ["a", "b"])
        assert first == MatchResult.from_bits(dict(sets), compiled, ["a", "b"])
        changed = dict(sets, a=sets["a"] ^ 1)
        assert first != MatchResult.from_bits(changed, compiled, ["a", "b"])

    def test_the_empty_relation(self, lazy_graph):
        compiled = compile_graph(lazy_graph)
        pattern_nodes = ["a", "b"]
        sets = random_sets(compiled, pattern_nodes, random.Random(2), empty=True)
        lazy, eager = lazy_and_eager(compiled, sets, pattern_nodes)
        assert lazy.is_empty and not lazy
        assert lazy == eager == MatchResult.empty(pattern_nodes)
        assert hash(lazy) == hash(MatchResult.empty(pattern_nodes))
        assert len(lazy) == 0 and list(lazy.pairs()) == []
        assert lazy.matches("a") == frozenset() and lazy.match_count("a") == 0
        assert lazy.as_dict() == {} and lazy.pattern_nodes() == {"a", "b"}
        assert lazy.sorted_names("a") == []

    def test_pickle_round_trip(self, lazy_graph):
        compiled = compile_graph(lazy_graph)
        for empty in (False, True):
            sets = random_sets(compiled, ["a", "b"], random.Random(3), empty=empty)
            lazy, eager = lazy_and_eager(compiled, sets, ["a", "b"])
            restored = pickle.loads(pickle.dumps(lazy))
            assert type(restored) is MatchResult
            assert restored == eager and restored == lazy
            assert restored.pattern_nodes() == lazy.pattern_nodes()
            assert pickle.loads(pickle.dumps(eager)) == eager

    @pytest.mark.parametrize("seed", range(3))
    def test_rendering_is_byte_identical(self, lazy_graph, seed):
        compiled = compile_graph(lazy_graph)
        pattern = two_node_pattern()
        sets = random_sets(compiled, pattern.node_list(), random.Random(seed))
        lazy, eager = lazy_and_eager(compiled, sets, pattern.node_list())
        assert ResultView(pattern, lazy).to_json() == ResultView(pattern, eager).to_json()
        assert ResultView(pattern, lazy).to_json(indent=2) == (
            ResultView(pattern, eager).to_json(indent=2)
        )
        assert FactorisedView(pattern, lazy).count_factorised() == (
            FactorisedView(pattern, eager).count_factorised()
        )
        assert lazy.sorted_names("a") == eager.sorted_names("a")

    def test_same_ids_after_the_snapshot_is_patched(self, lazy_graph):
        graph = lazy_graph
        compiled = compile_graph(graph)
        pattern_nodes = ["a", "b"]
        sets = random_sets(compiled, pattern_nodes, random.Random(4))
        lazy, eager = lazy_and_eager(compiled, sets, pattern_nodes)
        before = {u: eager.sorted_names(u) for u in pattern_nodes}
        # Intern a node and patch an insertion and a deletion, all before
        # the lazy result decodes anything.
        graph.add_node("late-node", label="A")
        compiled.intern_node("late-node", {"label": "A"})
        nodes = graph.node_list()
        source, target = next(
            (x, y) for x in nodes for y in nodes if x != y and not graph.has_edge(x, y)
        )
        graph.add_edge(source, target)
        compiled.patch_edge_insert(source, target)
        old_source, old_target = next(iter(graph.edges()))
        graph.remove_edge(old_source, old_target)
        compiled.patch_edge_delete(old_source, old_target)
        assert compile_graph(graph) is compiled
        assert {u: lazy.sorted_names(u) for u in pattern_nodes} == before
        assert lazy.as_dict() == eager.as_dict()
        assert lazy == eager

    @pytest.mark.skipif(not fork_available(), reason="the pool needs fork")
    def test_pooled_match_many_equals_the_serial_loop(self, lazy_graph):
        generator = PatternGenerator(lazy_graph, seed=8)
        patterns = [generator.generate(3, 3, 2) for _ in range(8)]
        with MatchSession(lazy_graph) as serial:
            expected = [serial.match(pattern) for pattern in patterns]
        with MatchSession(lazy_graph) as session:
            pooled = session.match_many(patterns, parallel=True, max_workers=2)
            pool = session.stats()["pool"]
        # Every query was answered by a worker's bitsets, none serially.
        assert pool["serial_fallbacks"] == 0
        assert sum(pool["per_worker_executed"].values()) == len(
            {pattern.fingerprint() for pattern in patterns}
        )
        assert any(expected) and pooled == expected
        for result, reference in zip(pooled, expected):
            assert result.as_dict() == reference.as_dict()
            assert len(result) == len(reference)
