"""Tests for incremental distance-matrix maintenance (UpdateM / UpdateBM)."""

from __future__ import annotations

import random

import pytest

from repro.distance.incremental import (
    EdgeUpdate,
    apply_updates,
    build_store,
    merge_affected_into,
    update_store_batch,
    update_store_delete,
    update_store_insert,
)
from repro.distance.matrix import MAX_STORED_DISTANCE
from repro.distance.oracle import INF
from repro.exceptions import DistanceOracleError, DistanceOverflowError
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.matching.bounded import match, naive_match
from repro.matching.incremental import IncrementalMatcher


def new_store(graph):
    return build_store(compile_graph(graph))


def decoded(store):
    """The store's finite entries keyed by node ids."""
    node_of = store.compiled.node_of
    return {(node_of(i), node_of(j)): dist for i, j, dist in store.finite_pairs()}


def decoded_aff1(store, affected):
    node_of = store.compiled.node_of
    return {(node_of(x), node_of(y)): change for (x, y), change in affected.items()}


def reference(graph):
    """Finite entries of *graph*, one dict BFS per source."""
    return {
        (source, target): dist
        for source in graph.nodes()
        for target, dist in graph.bfs_distances(source).items()
    }


def distance(store, source, target):
    id_of = store.compiled.id_of
    return store.distance(id_of(source), id_of(target))


class TestEdgeUpdate:
    def test_constructors_and_flags(self):
        insert = EdgeUpdate.insert(1, 2)
        delete = EdgeUpdate.delete(1, 2)
        assert insert.is_insert and not insert.is_delete
        assert delete.is_delete and not delete.is_insert

    def test_inverse(self):
        assert EdgeUpdate.insert(1, 2).inverse() == EdgeUpdate.delete(1, 2)
        assert EdgeUpdate.delete(1, 2).inverse() == EdgeUpdate.insert(1, 2)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            EdgeUpdate("upsert", 1, 2)


class TestInsert:
    def test_insert_shortens_distances(self, chain_graph):
        store = new_store(chain_graph)
        affected = decoded_aff1(store, update_store_insert(store, "n4", "n0"))
        assert chain_graph.has_edge("n4", "n0")
        assert distance(store, "n4", "n0") == 1
        assert distance(store, "n3", "n1") == 3  # n3 -> n4 -> n0 -> n1
        assert ("n4", "n0") in affected
        old, new = affected[("n4", "n0")]
        assert old == INF and new == 1

    def test_insert_existing_edge_is_noop(self, chain_graph):
        store = new_store(chain_graph)
        assert update_store_insert(store, "n0", "n1") == {}

    def test_insert_unknown_node_raises(self, chain_graph):
        store = new_store(chain_graph)
        with pytest.raises(DistanceOracleError):
            update_store_insert(store, "n0", "ghost")

    def test_affected_pairs_all_decrease(self, random_graph):
        store = new_store(random_graph)
        nodes = random_graph.node_list()
        rng = random.Random(0)
        source, target = rng.choice(nodes), rng.choice(nodes)
        while source == target or random_graph.has_edge(source, target):
            source, target = rng.choice(nodes), rng.choice(nodes)
        affected = update_store_insert(store, source, target)
        assert affected
        assert all(new < old for old, new in affected.values())

    def test_matches_full_recompute(self):
        graph = random_data_graph(20, 40, seed=10)
        store = new_store(graph)
        rng = random.Random(10)
        nodes = graph.node_list()
        for _ in range(10):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source == target or graph.has_edge(source, target):
                continue
            update_store_insert(store, source, target)
            assert decoded(store) == reference(graph)


class TestDelete:
    def test_delete_lengthens_distances(self, chain_graph):
        store = new_store(chain_graph)
        affected = decoded_aff1(store, update_store_delete(store, "n1", "n2"))
        assert not chain_graph.has_edge("n1", "n2")
        assert distance(store, "n0", "n4") == INF
        assert ("n0", "n2") in affected
        assert all(new > old for old, new in affected.values())

    def test_delete_missing_edge_is_noop(self, chain_graph):
        store = new_store(chain_graph)
        assert update_store_delete(store, "n2", "n0") == {}

    def test_delete_with_alternative_path_changes_nothing(self, tiny_graph):
        store = new_store(tiny_graph)
        # a -> b and a -> c -> d both reach d in <= 2; deleting a->b keeps dist(a, d) = 2.
        affected = decoded_aff1(store, update_store_delete(store, "a", "b"))
        assert distance(store, "a", "d") == 2
        assert ("a", "d") not in affected
        assert ("a", "b") in affected

    def test_delete_unknown_node_raises(self, chain_graph):
        store = new_store(chain_graph)
        with pytest.raises(DistanceOracleError):
            update_store_delete(store, "ghost", "n0")

    def test_matches_full_recompute(self):
        graph = random_data_graph(20, 60, seed=11)
        store = new_store(graph)
        rng = random.Random(11)
        for _ in range(15):
            edges = graph.edge_list()
            if not edges:
                break
            source, target = rng.choice(edges)
            update_store_delete(store, source, target)
            assert decoded(store) == reference(graph)


class TestBatchAndMerge:
    def test_batch_matches_full_recompute(self):
        graph = random_data_graph(25, 70, seed=12)
        before = reference(graph)
        store = new_store(graph)
        rng = random.Random(12)
        nodes = graph.node_list()
        updates = []
        for source, target in rng.sample(graph.edge_list(), 8):
            updates.append(EdgeUpdate.delete(source, target))
        added = set()
        while len(added) < 8:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source != target and not graph.has_edge(source, target) and (source, target) not in added:
                added.add((source, target))
                updates.append(EdgeUpdate.insert(source, target))
        rng.shuffle(updates)
        affected = decoded_aff1(store, update_store_batch(store, updates))
        after = reference(graph)
        assert decoded(store) == after
        # AFF1 is exactly the net change relative to a fresh "before" matrix.
        assert affected == {
            pair: (before.get(pair, INF), after.get(pair, INF))
            for pair in before.keys() | after.keys()
            if before.get(pair, INF) != after.get(pair, INF)
        }

    def test_merge_affected_nets_out_reverted_pairs(self):
        first = {("a", "b"): (2, 5)}
        second = {("a", "b"): (5, 2), ("c", "d"): (1, 3)}
        merged = merge_affected_into(first, second)
        assert ("a", "b") not in merged
        assert merged[("c", "d")] == (1, 3)

    def test_merge_affected_keeps_first_old_and_last_new(self):
        first = {("a", "b"): (2, 4)}
        second = {("a", "b"): (4, 7)}
        assert merge_affected_into(first, second) == {("a", "b"): (2, 7)}

    def test_apply_updates_helper(self, chain_graph):
        apply_updates(
            chain_graph,
            [EdgeUpdate.delete("n0", "n1"), EdgeUpdate.insert("n4", "n0")],
        )
        assert not chain_graph.has_edge("n0", "n1")
        assert chain_graph.has_edge("n4", "n0")

    def test_insert_then_delete_round_trip(self, chain_graph):
        store = new_store(chain_graph)
        before = decoded(store)
        update_store_insert(store, "n4", "n0")
        update_store_delete(store, "n4", "n0")
        assert decoded(store) == before


class TestVersionStamp:
    """Repairs stamp the store; the snapshot's lookup trusts only the stamp."""

    def test_repairs_keep_the_snapshot_store_current(self, chain_graph):
        compiled = compile_graph(chain_graph)
        store = compiled.distance_store()
        assert store.version == compiled.version
        update_store_insert(store, "n4", "n0")
        update_store_delete(store, "n1", "n2")
        update_store_delete(store, "n1", "n2")  # no-op: stamp unchanged
        assert store.version == compiled.version == chain_graph.version
        assert compiled.distance_store() is store
        assert decoded(store) == reference(chain_graph)

    def test_repair_does_not_revive_a_stale_store(self, chain_graph):
        compiled = compile_graph(chain_graph)
        store = compiled.distance_store()
        # Patched without a repair: the store missed this deletion.
        chain_graph.remove_edge("n1", "n2")
        compiled.patch_edge_delete("n1", "n2")
        update_store_insert(store, "n4", "n0")
        assert store.version != compiled.version
        rebuilt = compiled.distance_store()
        assert rebuilt is not store
        assert decoded(rebuilt) == reference(chain_graph)


def long_chain(length, *, shortcut=None):
    """``c0 -> c1 -> ... -> c{length-1}``, ends labelled ``A``/``B``.

    With *shortcut* ``k`` the extra edge ``c0 -> ck`` shortens every path
    out of ``c0``.
    """
    graph = DataGraph(name="long-chain")
    for index in range(length):
        label = "A" if index == 0 else "B" if index == length - 1 else "X"
        graph.add_node(f"c{index}", label=label)
    for index in range(length - 1):
        graph.add_edge(f"c{index}", f"c{index + 1}")
    if shortcut is not None:
        graph.add_edge("c0", f"c{shortcut}")
    return graph


class TestDistanceOverflow:
    """Distances past the store's 254-hop cell limit raise, never truncate."""

    def test_build_of_a_256_node_chain_raises(self):
        graph = long_chain(256)  # dist(c0, c255) == 255
        with pytest.raises(DistanceOverflowError):
            build_store(compile_graph(graph))
        with pytest.raises(DistanceOverflowError):
            compile_graph(graph).distance_store()
        with pytest.raises(DistanceOverflowError):
            IncrementalMatcher(ends_pattern(None), graph)

    def test_254_hops_fit(self):
        store = new_store(long_chain(255))
        assert store.distance(0, 254) == MAX_STORED_DISTANCE
        assert store.distance(254, 0) == INF

    def test_deletion_stretching_past_254_raises_and_unstamps(self):
        graph = long_chain(256, shortcut=10)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        assert store.distance(compiled.id_of("c0"), compiled.id_of("c255")) == 246
        with pytest.raises(DistanceOverflowError):
            update_store_delete(store, "c0", "c10")
        assert not graph.has_edge("c0", "c10")
        assert store.version != compiled.version
        with pytest.raises(DistanceOverflowError):
            compiled.distance_store()

    def test_insertion_joining_two_chains_raises_and_unstamps(self):
        graph = long_chain(130)
        for index in range(130):
            graph.add_node(f"d{index}", label="X")
        for index in range(129):
            graph.add_edge(f"d{index}", f"d{index + 1}")
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        with pytest.raises(DistanceOverflowError):
            update_store_insert(store, "c129", "d0")  # dist(c0, d129) == 259
        assert store.version != compiled.version
        with pytest.raises(DistanceOverflowError):
            compiled.distance_store()

    def test_set_distance_rejects_a_long_distance(self, chain_graph):
        store = new_store(chain_graph)
        with pytest.raises(DistanceOverflowError):
            store.set_distance(0, 4, MAX_STORED_DISTANCE + 1)
        assert store.distance(0, 4) == 4

    def test_match_still_answers_on_the_long_chain(self):
        graph = long_chain(300)
        expected = naive_match(ends_pattern(None), graph.copy())
        assert set(expected.pairs()) == {("a", "c0"), ("b", "c299")}
        assert match(ends_pattern(None), graph) == expected
        assert match(ends_pattern(299), graph) == expected
        assert match(ends_pattern(298), graph).is_empty


def ends_pattern(bound):
    """``a(A) -> b(B)`` within *bound* hops (``None``: unbounded)."""
    pattern = Pattern()
    pattern.add_node("a", "A")
    pattern.add_node("b", "B")
    pattern.add_edge("a", "b", bound)
    return pattern
