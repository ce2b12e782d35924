"""Tests for the incremental engine and its edge-semantics hardening.

Covers:

* randomized incremental-vs-scratch equivalence for mixed insert/delete
  streams (including repeat-edge batches) over DAG and cyclic patterns:
  matches against ``naive_match``, AFF1 against fresh distance matrices,
  AFF2 and ``mat(u)`` against a matcher built from scratch;
* true no-op semantics for deleting missing / inserting existing edges,
  through both the unit operations and an IncMatch batch;
* AFF1 netting (``merge_affected_into`` drops pairs whose net change is
  ``old == new``);
* the snapshot patch layer (``patch_edge_insert``/``patch_edge_delete``/
  ``intern_node``) against full recompilation, and re-pins of standing
  matchers that share one patched snapshot and its one distance store
  (differentially against ``naive_match`` and a fresh ``build_store``, and
  by counting ``build_store`` calls);
* cyclic-pattern insertions rejected before the graph is touched;
* the weak compile cache (discarded graphs must not leak snapshots);
* the compiled ``UpdateM``/``UpdateBM`` against a fresh distance matrix.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.distance import incremental as incremental_distance
from repro.distance.incremental import (
    EdgeUpdate,
    build_store,
    merge_affected_into,
    update_store_batch,
    update_store_delete,
    update_store_insert,
)
from repro.distance.matrix import DistanceMatrix, InternedDistanceStore
from repro.distance.oracle import INF
from repro.engine.session import DEFAULT_MAX_MATCHERS, MatchSession
from repro.exceptions import CyclicPatternError, DistanceOracleError
from repro.graph.compiled import CompiledGraph, compile_graph, _COMPILE_CACHE
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.affected import AffectedArea
from repro.matching.bounded import match, naive_match
from repro.matching.incremental import IncrementalMatcher


def decoded(store):
    """The store's finite entries keyed by node ids."""
    node_of = store.compiled.node_of
    return {(node_of(i), node_of(j)): dist for i, j, dist in store.finite_pairs()}


def reference(graph):
    """Finite entries of *graph*, one dict BFS per source."""
    return {
        (source, target): dist
        for source in graph.nodes()
        for target, dist in graph.bfs_distances(source).items()
    }


def net_change(before, after):
    """The AFF1 between two distance maps: every pair whose distance moved."""
    return {
        pair: (before.get(pair, INF), after.get(pair, INF))
        for pair in before.keys() | after.keys()
        if before.get(pair, INF) != after.get(pair, INF)
    }


def mat_pairs(matcher, pattern):
    return {(u, v) for u in pattern.nodes() for v in matcher.mat(u)}


def assert_step_against_scratch(matcher, pattern, graph, area, before_dist, before_mat):
    """Check one maintained step against references computed from scratch."""
    after_dist = reference(graph)
    assert area.distance_changes == net_change(before_dist, after_dist)
    assert decoded(matcher._store) == after_dist
    scratch = IncrementalMatcher(pattern, graph.copy())
    after_mat = mat_pairs(scratch, pattern)
    assert mat_pairs(matcher, pattern) == after_mat
    assert area.removed_matches == before_mat - after_mat
    assert area.added_matches == after_mat - before_mat
    assert matcher.match == naive_match(pattern, graph.copy())


def run_updates(matcher, updates, batched):
    """Apply *updates* as one IncMatch batch, or as unit Match-/Match+ calls."""
    if batched:
        return matcher.apply(updates)
    area = AffectedArea()
    for update in updates:
        step = matcher.insert_edge if update.is_insert else matcher.delete_edge
        area = area.merge(step(update.source, update.target))
    return area


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


def cyclic_pattern() -> Pattern:
    pattern = Pattern()
    pattern.add_node("X", "X")
    pattern.add_node("Y", "Y")
    pattern.add_edge("X", "Y", 2)
    pattern.add_edge("Y", "X", 2)
    return pattern


def mixed_stream(graph, rng, count):
    """A stream mixing deletions, insertions and deliberate repeat edges."""
    updates = []
    nodes = graph.node_list()
    edges = graph.edge_list()
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4 and edges:
            updates.append(EdgeUpdate.delete(*rng.choice(edges)))
        elif roll < 0.8:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source != target:
                updates.append(EdgeUpdate.insert(source, target))
        elif edges:
            # Delete + re-insert the same edge within one batch: the net
            # AFF1 must cancel out.
            edge = rng.choice(edges)
            updates.append(EdgeUpdate.delete(*edge))
            updates.append(EdgeUpdate.insert(*edge))
    return updates


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_streams_dag_pattern(self, seed):
        rng = random.Random(seed)
        graph = random_data_graph(20, 45, num_labels=4, seed=seed)
        generator = PatternGenerator(graph, seed=seed)
        pattern = generator.generate_dag(4, 5, 3)
        matcher = IncrementalMatcher(pattern, graph)
        for _ in range(4):
            updates = mixed_stream(graph, rng, 6)
            before_dist = reference(graph)
            before_mat = mat_pairs(matcher, pattern)
            area = matcher.apply(updates)
            assert_step_against_scratch(
                matcher, pattern, graph, area, before_dist, before_mat
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_deletion_streams_cyclic_pattern(self, seed):
        rng = random.Random(seed)
        graph = random_data_graph(16, 40, num_labels=2, seed=seed)
        # Relabel so the cyclic pattern has candidates.
        for i, node in enumerate(graph.node_list()):
            graph.set_attributes(node, label="X" if i % 2 else "Y")
        pattern = cyclic_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        for _ in range(3):
            edges = graph.edge_list()
            updates = [EdgeUpdate.delete(*rng.choice(edges)) for _ in range(4)]
            before_dist = reference(graph)
            before_mat = mat_pairs(matcher, pattern)
            area = matcher.apply(updates)
            assert_step_against_scratch(
                matcher, pattern, graph, area, before_dist, before_mat
            )

    def test_store_matches_scratch_state(self):
        graph = random_data_graph(18, 40, num_labels=3, seed=7)
        pattern = PatternGenerator(graph, seed=7).generate_dag(4, 5, 3)
        matcher = IncrementalMatcher(pattern, graph)
        matcher.apply(mixed_stream(graph, random.Random(7), 8))
        assert decoded(matcher._store) == reference(graph)

    @pytest.mark.parametrize("batched", [True, False])
    def test_cyclic_insert_raises_in_both_modes(self, batched):
        graph = simple_graph()
        for node, label in [("x1", "X"), ("y1", "Y")]:
            graph.add_node(node, label=label)
        graph.add_edge("x1", "y1")
        graph.add_edge("y1", "x1")
        matcher = IncrementalMatcher(cyclic_pattern(), graph)
        with pytest.raises(CyclicPatternError):
            run_updates(matcher, [EdgeUpdate.insert("a1", "x1")], batched)

    def test_cyclic_insert_recompute_fallback_equivalence(self):
        graph = simple_graph()
        for node, label in [("x1", "X"), ("y1", "Y"), ("x2", "X")]:
            graph.add_node(node, label=label)
        graph.add_edge("x1", "y1")
        graph.add_edge("y1", "x1")
        pattern = cyclic_pattern()
        matcher = IncrementalMatcher(pattern, graph, on_cyclic="recompute")
        before_dist = reference(graph)
        before_mat = mat_pairs(matcher, pattern)
        area = matcher.insert_edge("x2", "y1")
        assert ("X", "x2") in area.added_matches
        assert_step_against_scratch(
            matcher, pattern, graph, area, before_dist, before_mat
        )


class TestNoOpHardening:
    @pytest.mark.parametrize("batched", [True, False])
    def test_delete_missing_edge_is_true_noop(self, batched):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        version = graph.version
        snapshot = reference(graph)
        before = matcher.match
        area = run_updates(matcher, [EdgeUpdate.delete("c1", "a1")], batched)
        assert area.aff1_size == 0
        assert not area.removed_matches and not area.added_matches
        assert graph.version == version  # the graph was not mutated
        assert decoded(matcher._store) == snapshot  # nor the distance store
        assert matcher.match == before

    @pytest.mark.parametrize("batched", [True, False])
    def test_insert_existing_edge_is_true_noop(self, batched):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        version = graph.version
        snapshot = reference(graph)
        before = matcher.match
        area = run_updates(matcher, [EdgeUpdate.insert("a1", "b1")], batched)
        assert area.aff1_size == 0
        assert not area.added_matches and not area.removed_matches
        assert graph.version == version
        assert decoded(matcher._store) == snapshot
        assert matcher.match == before

    def test_insert_existing_edge_does_not_require_dag(self):
        """A no-op insertion must not trip the cyclic-pattern guard."""
        graph = simple_graph()
        graph.add_node("x1", label="X")
        graph.add_node("y1", label="Y")
        graph.add_edge("x1", "y1")
        for batched in (True, False):
            matcher = IncrementalMatcher(cyclic_pattern(), graph.copy())
            # The edge exists: no CyclicPatternError.
            area = run_updates(matcher, [EdgeUpdate.insert("x1", "y1")], batched)
            assert area.aff1_size == 0

    @pytest.mark.parametrize("batched", [True, False])
    def test_batch_of_noops_is_empty(self, batched):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        version = graph.version
        area = run_updates(
            matcher,
            [
                EdgeUpdate.delete("c1", "a1"),   # missing edge
                EdgeUpdate.insert("a1", "b1"),   # existing edge
                EdgeUpdate.delete("a1", "c1"),   # missing edge
            ],
            batched,
        )
        assert area.total_size == 0
        assert graph.version == version

    @pytest.mark.parametrize("batched", [True, False])
    def test_repeated_delete_in_one_batch(self, batched):
        """The second deletion of the same edge must be a no-op."""
        graph = simple_graph()
        original = graph.copy()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        updates = [EdgeUpdate.delete("b2", "c1"), EdgeUpdate.delete("b2", "c1")]
        run_updates(matcher, updates, batched)
        assert matcher.match == naive_match(pattern, graph.copy())
        assert not graph.has_edge("b2", "c1")
        assert original.number_of_edges() - graph.number_of_edges() == 1

    @pytest.mark.parametrize("batched", [True, False])
    def test_unknown_endpoints_raise(self, batched):
        graph = simple_graph()
        matcher = IncrementalMatcher(simple_dag_pattern(), graph)
        with pytest.raises(DistanceOracleError):
            run_updates(matcher, [EdgeUpdate.delete("nope", "c1")], batched)
        with pytest.raises(DistanceOracleError):
            run_updates(matcher, [EdgeUpdate.insert("a1", "nope")], batched)


class TestAff1Netting:
    @pytest.mark.parametrize("batched", [True, False])
    def test_delete_then_reinsert_nets_to_empty_aff1(self, batched):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        area = run_updates(
            matcher,
            [EdgeUpdate.delete("b1", "c1"), EdgeUpdate.insert("b1", "c1")],
            batched,
        )
        assert area.aff1_size == 0
        assert not area.removed_matches and not area.added_matches
        assert matcher.match == naive_match(pattern, graph.copy())

    def test_merge_affected_drops_netted_pairs(self):
        first = {("a", "b"): (2, INF), ("a", "c"): (3, 4)}
        second = {("a", "b"): (INF, 2), ("a", "c"): (4, 5)}
        merged = merge_affected_into(first, second)
        assert ("a", "b") not in merged
        assert merged[("a", "c")] == (3, 5)

    def test_merge_affected_drops_degenerate_inputs(self):
        # Defensive: an old == new step record must never enter the net.
        assert merge_affected_into({}, {("x", "y"): (2, 2)}) == {}

    def test_affected_area_merge_drops_netted_pairs(self):
        first = AffectedArea(distance_changes={("a", "b"): (2, INF)})
        second = AffectedArea(distance_changes={("a", "b"): (INF, 2)})
        assert first.merge(second).aff1_size == 0

    def test_merge_affected_into_matches_copying_variant(self):
        rng = random.Random(5)
        nodes = list("abcdef")
        steps = []
        for _ in range(6):
            step = {}
            for _ in range(5):
                pair = (rng.choice(nodes), rng.choice(nodes))
                old, new = rng.randint(1, 4), rng.randint(1, 4)
                step[pair] = (old, new)
            steps.append(step)
        # Reference: the first recorded old and the last recorded new per
        # pair, kept only when they differ.
        first_old = {}
        last_new = {}
        for step in steps:
            for pair, (old, new) in step.items():
                if pair not in first_old and old != new:
                    first_old[pair] = old
                if pair in first_old:
                    last_new[pair] = new
        expected = {
            pair: (old, last_new[pair])
            for pair, old in first_old.items()
            if old != last_new[pair]
        }
        in_place = {}
        for step in steps:
            merge_affected_into(in_place, step)
        assert in_place == expected


class TestCompiledUpdateProcedures:
    @pytest.mark.parametrize("seed", range(5))
    def test_store_batch_matches_matrix_batch(self, seed):
        rng = random.Random(seed)
        graph = random_data_graph(15, 30, num_labels=3, seed=seed)
        before = reference(graph)
        compiled = compile_graph(graph)
        store = InternedDistanceStore.from_matrix(DistanceMatrix(graph), compiled)
        updates = mixed_stream(graph, rng, 8)
        interned = update_store_batch(store, updates)
        node_of = compiled.node_of
        aff1 = {
            (node_of(x), node_of(y)): change for (x, y), change in interned.items()
        }
        after = reference(graph)
        assert aff1 == net_change(before, after)
        assert decoded(store) == after

    def test_store_noop_updates_touch_nothing(self):
        graph = simple_graph()
        compiled = compile_graph(graph)
        store = InternedDistanceStore.from_matrix(DistanceMatrix(graph), compiled)
        version = graph.version
        edges = compiled.num_edges
        assert update_store_delete(store, "c1", "a1") == {}
        assert update_store_insert(store, "a1", "b1") == {}
        assert graph.version == version
        assert compiled.num_edges == edges


class TestSnapshotPatching:
    def test_patched_snapshot_equals_recompiled(self):
        rng = random.Random(11)
        graph = random_data_graph(14, 30, num_labels=3, seed=11)
        compiled = CompiledGraph.from_graph(graph)
        for _ in range(10):
            edges = graph.edge_list()
            if rng.random() < 0.5 and edges:
                source, target = rng.choice(edges)
                graph.remove_edge(source, target)
                compiled.patch_edge_delete(source, target)
            else:
                nodes = graph.node_list()
                source, target = rng.choice(nodes), rng.choice(nodes)
                if source == target or graph.has_edge(source, target):
                    continue
                graph.add_edge(source, target)
                compiled.patch_edge_insert(source, target)
        assert compiled.version == graph.version
        fresh = CompiledGraph.from_graph(graph)
        assert compiled.num_edges == fresh.num_edges
        assert compiled.out_nonzero_bits == fresh.out_nonzero_bits
        for node in graph.nodes():
            i = compiled.id_of(node)
            assert set(compiled.successors_indices(i)) == {
                compiled.id_of(s) for s in graph.successors(node)
            }
            assert set(compiled.predecessors_indices(i)) == {
                compiled.id_of(p) for p in graph.predecessors(node)
            }
            assert compiled.out_degree(i) == graph.out_degree(node)
            assert compiled.in_degree(i) == graph.in_degree(node)
            for bound in (1, 2, None):
                assert compiled.decode(
                    compiled.descendants_within_bits(i, bound)
                ) == graph.descendants_within(node, bound)
                assert compiled.decode(
                    compiled.ancestors_within_bits(i, bound)
                ) == graph.ancestors_within(node, bound)

    def test_compile_cache_serves_patched_snapshot_without_recompile(self):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        pinned = compile_graph(graph)
        matcher.apply(
            [EdgeUpdate.delete("b2", "c1"), EdgeUpdate.insert("b1", "b2")]
        )
        # The stream patched the pinned snapshot in place; a batch match
        # against the same graph reuses it instead of recompiling.
        assert compile_graph(graph) is pinned
        assert pinned.version == graph.version
        assert matcher.match == naive_match(pattern, graph.copy())

    def test_intern_node_appends_stable_indices(self):
        graph = simple_graph()
        compiled = CompiledGraph.from_graph(graph)
        old_ids = {node: compiled.id_of(node) for node in graph.nodes()}
        old_all_bits = compiled.all_bits
        graph.add_node("z9", label="C")
        index = compiled.intern_node("z9", graph.attributes("z9"))
        assert index == len(old_ids)
        assert compiled.version == graph.version
        for node, i in old_ids.items():
            assert compiled.id_of(node) == i
        assert compiled.all_bits == (old_all_bits << 1) | 1 | old_all_bits
        assert compiled.out_degree(index) == 0
        assert "z9" in compiled
        assert compiled.decode(compiled.encode(["z9"])) == {"z9"}

    def test_out_of_band_node_growth_reinterned_by_matcher(self):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        graph.add_node("b3", label="B")
        graph.add_node("a3", label="A")
        area = matcher.apply(
            [EdgeUpdate.insert("a3", "b3"), EdgeUpdate.insert("b3", "c1")]
        )
        assert ("B", "b3") in area.added_matches
        assert ("A", "a3") in area.added_matches
        assert matcher.match == naive_match(pattern, graph.copy())

    def test_out_of_band_edge_mutation_triggers_full_repin(self):
        graph = simple_graph()
        pattern = simple_dag_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        # Mutate behind the matcher's back: the next operation must re-pin
        # and repair rather than trust the stale snapshot.
        graph.remove_edge("b2", "c1")
        area = matcher.delete_edge("b1", "c1")
        assert area is not None
        assert matcher.match == naive_match(pattern, graph.copy())


class TestStandingMatcherRepin:
    def test_round_robin_batches_repin_through_build_store(self):
        """Two standing matchers on one session take turns patching the
        shared snapshot; each re-pins onto the snapshot's store, which the
        other's batch repaired."""
        graph = random_data_graph(30, 70, num_labels=4, seed=21)
        generator = PatternGenerator(graph, seed=21)
        patterns = [generator.generate_dag(4, 4, 3), generator.generate_dag(3, 3, 2)]
        rng = random.Random(21)
        session = MatchSession(graph)
        for round_index in range(6):
            pattern = patterns[round_index % 2]
            result, _ = session.apply_updates(pattern, mixed_stream(graph, rng, 5))
            assert result == naive_match(pattern, graph.copy())
            distances = reference(graph)
            for other in patterns:
                matcher = session.incremental_matcher(other)
                matcher.apply([])  # the idle matcher re-pins here
                expected = naive_match(other, graph.copy())
                assert matcher.match == expected
                assert decoded(matcher._store) == distances
                assert session.match(other) == expected
                assert match(other, graph) == expected


def two_cycle_pattern() -> Pattern:
    """``a(X) <-> b(Y)``: the smallest cyclic pattern."""
    pattern = Pattern()
    pattern.add_node("a", "X")
    pattern.add_node("b", "Y")
    pattern.add_edge("a", "b")
    pattern.add_edge("b", "a")
    return pattern


def one_way_graph() -> DataGraph:
    graph = DataGraph()
    graph.add_node("x1", label="X")
    graph.add_node("y1", label="Y")
    graph.add_edge("x1", "y1")
    return graph


class TestCyclicRejectionIsAtomic:
    """A cyclic-pattern insertion is refused before anything is mutated."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_rejected_insert_leaves_graph_and_match_untouched(self, batched):
        graph = one_way_graph()
        pattern = two_cycle_pattern()
        matcher = IncrementalMatcher(pattern, graph)
        version = graph.version
        store = matcher._store
        with pytest.raises(CyclicPatternError):
            run_updates(matcher, [EdgeUpdate.insert("y1", "x1")], batched)
        assert graph.version == version
        assert not graph.has_edge("y1", "x1")
        assert compile_graph(graph).version == version
        assert store.version == version
        assert decoded(store) == reference(graph)
        # The matcher still follows the graph: the same edge added out of
        # band is picked up by the next operation.
        graph.add_edge("y1", "x1")
        matcher.apply([])
        expected = naive_match(pattern, graph.copy())
        assert not expected.is_empty
        assert matcher.match == expected

    def test_rejected_insert_through_session_caches_no_stale_match(self):
        graph = one_way_graph()
        pattern = two_cycle_pattern()
        session = MatchSession(graph)
        with pytest.raises(CyclicPatternError):
            session.apply_updates(pattern, [EdgeUpdate.insert("y1", "x1")])
        assert not graph.has_edge("y1", "x1")
        graph.add_edge("y1", "x1")
        maintained, _ = session.apply_updates(pattern, [])
        expected = naive_match(pattern, graph.copy())
        assert not expected.is_empty
        assert maintained == expected
        assert session.match(pattern) == expected

    def test_presence_is_tracked_through_the_batch(self):
        graph = one_way_graph()
        matcher = IncrementalMatcher(two_cycle_pattern(), graph)
        # Re-inserting the existing edge is a no-op, even after a no-op
        # delete of a missing one.
        matcher.apply(
            [EdgeUpdate.delete("y1", "x1"), EdgeUpdate.insert("x1", "y1")]
        )
        version = graph.version
        # Deleting then re-inserting an edge really inserts it: refused, and
        # the deletion ahead of it is not applied either.
        with pytest.raises(CyclicPatternError):
            matcher.apply(
                [EdgeUpdate.delete("x1", "y1"), EdgeUpdate.insert("x1", "y1")]
            )
        assert graph.version == version
        assert graph.has_edge("x1", "y1")


def filler_pattern(bound: int) -> Pattern:
    """A one-edge pattern whose fingerprint differs per *bound*."""
    pattern = Pattern()
    pattern.add_node("p", "L0")
    pattern.add_node("q", "L1")
    pattern.add_edge("p", "q", bound)
    return pattern


def fresh_store_entries(graph):
    """The finite entries of ``build_store`` over a fresh compile of *graph*."""
    return decoded(build_store(CompiledGraph.from_graph(graph.copy())))


class TestSharedStoreDifferential:
    def test_standing_matchers_share_one_repaired_store(self):
        """Three standing matchers — two DAG, one cyclic on the recompute
        fallback — take turns; node additions, an out-of-band edge and LRU
        eviction land between batches.  Every maintained match equals
        ``naive_match`` and every matcher's store, which is its snapshot's
        one shared store, equals a fresh ``build_store``."""
        graph = random_data_graph(24, 60, num_labels=3, seed=5)
        generator = PatternGenerator(graph, seed=5)
        cyclic = Pattern()
        cyclic.add_node("a", "L0")
        cyclic.add_node("b", "L1")
        cyclic.add_edge("a", "b", 2)
        cyclic.add_edge("b", "a", 3)
        patterns = [generator.generate_dag(4, 4, 3), generator.generate_dag(3, 3, 2), cyclic]
        session = MatchSession(graph, on_cyclic="recompute")
        for pattern in patterns:
            session.incremental_matcher(pattern)
        rng = random.Random(5)
        for round_index in range(12):
            if round_index in (3, 4):
                for k in range(2):
                    graph.add_node(f"n{round_index}_{k}", label=f"L{k}")
            if round_index == 6:
                source, target = next(
                    (s, t)
                    for s in graph.node_list()
                    for t in graph.node_list()
                    if s != t and not graph.has_edge(s, t)
                )
                graph.add_edge(source, target)
            if round_index == 9:
                for bound in range(1, DEFAULT_MAX_MATCHERS + 1):
                    session.incremental_matcher(filler_pattern(bound))
                assert session.stats()["incremental_matchers"] == DEFAULT_MAX_MATCHERS
            pattern = patterns[round_index % len(patterns)]
            result, _ = session.apply_updates(pattern, mixed_stream(graph, rng, 5))
            assert result == naive_match(pattern, graph.copy())
            expected_store = fresh_store_entries(graph)
            for other in patterns:
                matcher = session.incremental_matcher(other)
                matcher.apply([])
                assert matcher.match == naive_match(other, graph.copy())
                assert matcher._store is matcher._compiled.distance_store()
                assert decoded(matcher._store) == expected_store


class TestSharedStoreBuilds:
    """``build_store`` runs only when a snapshot's store is missing or stale."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = incremental_distance.build_store

        def counting(compiled):
            calls.append(compiled)
            return real(compiled)

        monkeypatch.setattr(incremental_distance, "build_store", counting)
        return calls

    @staticmethod
    def standing_session(seed):
        graph = random_data_graph(30, 70, num_labels=4, seed=seed)
        generator = PatternGenerator(graph, seed=seed)
        patterns = [generator.generate_dag(4, 4, 3), generator.generate_dag(3, 3, 2)]
        session = MatchSession(graph)
        for pattern in patterns:
            session.incremental_matcher(pattern)
        return graph, patterns, session

    def test_sibling_batches_build_no_store(self, builds):
        graph, patterns, session = self.standing_session(21)
        assert len(builds) == 1
        builds.clear()
        rng = random.Random(21)
        for round_index in range(8):
            pattern = patterns[round_index % 2]
            result, _ = session.apply_updates(pattern, mixed_stream(graph, rng, 5))
            assert result == naive_match(pattern, graph.copy())
        assert builds == []

    @pytest.mark.parametrize("through_session", [False, True])
    def test_out_of_band_mutation_builds_exactly_once(self, builds, through_session):
        graph, patterns, session = self.standing_session(22)
        source, target = next(
            (s, t)
            for s in graph.node_list()
            for t in graph.node_list()
            if s != t and not graph.has_edge(s, t)
        )
        builds.clear()
        if through_session:
            # Patches the snapshot but leaves its store unrepaired.
            assert session.patch_edge_insert(source, target)
        else:
            graph.add_edge(source, target)
        rng = random.Random(22)
        for round_index in range(4):
            pattern = patterns[round_index % 2]
            result, _ = session.apply_updates(pattern, mixed_stream(graph, rng, 4))
            assert result == naive_match(pattern, graph.copy())
        assert len(builds) == 1

    def test_node_additions_reintern_without_build(self, builds):
        graph = random_data_graph(20, 45, num_labels=3, seed=9)
        generator = PatternGenerator(graph, seed=9)
        first = IncrementalMatcher(generator.generate_dag(4, 4, 3), graph)
        second = IncrementalMatcher(generator.generate_dag(3, 3, 2), graph)
        builds.clear()
        graph.add_node("fresh", label="L0")
        graph.add_node("fresher", label="L1")
        target = graph.node_list()[0]
        first.apply([EdgeUpdate.insert("fresh", target), EdgeUpdate.insert("fresher", "fresh")])
        second.apply([])
        assert builds == []
        for matcher in (first, second):
            assert matcher.match == naive_match(matcher.pattern, graph.copy())
            assert decoded(matcher._store) == fresh_store_entries(graph)

    def test_node_additions_between_round_robin_batches_build_no_store(self, builds):
        """A node added out of band between two standing matchers' batches
        is interned into the shared snapshot, whose store grows in place:
        the matcher that is behind its sibling's batch re-pins onto the same
        snapshot and store instead of a recompile plus ``build_store``."""
        graph, patterns, session = self.standing_session(23)
        snapshot = compile_graph(graph)
        builds.clear()
        rng = random.Random(23)
        for round_index in range(6):
            graph.add_node(f"late{round_index}", label=f"L{round_index % 4}")
            pattern = patterns[round_index % 2]
            result, _ = session.apply_updates(pattern, mixed_stream(graph, rng, 5))
            assert result == naive_match(pattern, graph.copy())
        for pattern in patterns:
            matcher = session.incremental_matcher(pattern)
            matcher.apply([])
            assert matcher.match == naive_match(pattern, graph.copy())
            assert matcher._compiled is snapshot
            assert matcher._store is snapshot.distance_store()
        assert compile_graph(graph) is snapshot
        assert builds == []
        assert decoded(snapshot.distance_store()) == fresh_store_entries(graph)

    def test_two_matchers_on_one_graph_build_one_store(self, builds):
        graph = random_data_graph(20, 45, num_labels=3, seed=8)
        generator = PatternGenerator(graph, seed=8)
        first = IncrementalMatcher(generator.generate_dag(4, 4, 3), graph)
        second = IncrementalMatcher(generator.generate_dag(3, 3, 2), graph)
        assert len(builds) == 1
        assert first._store is second._store


class TestWeakCompileCache:
    def test_discarded_graphs_do_not_leak_snapshots(self):
        baseline = len(_COMPILE_CACHE)
        for seed in range(30):
            graph = random_data_graph(8, 12, num_labels=2, seed=seed)
            compile_graph(graph)
            del graph
        gc.collect()
        assert len(_COMPILE_CACHE) <= baseline + 1

    def test_snapshot_does_not_keep_graph_alive(self):
        graph = random_data_graph(8, 12, num_labels=2, seed=3)
        snapshot = compile_graph(graph)
        del graph
        gc.collect()
        assert snapshot.graph is None
