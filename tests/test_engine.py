"""Tests for the unified query engine (repro.engine)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.incremental import EdgeUpdate
from repro.distance.oracle import INF
from repro.engine import (
    STRATEGY_BOUNDED,
    STRATEGY_INCREMENTAL,
    STRATEGY_SIMULATION,
    MatchSession,
    ResultCache,
    fork_available,
    plan_query,
)
from repro.exceptions import EngineError, NodeNotFoundError
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.matching.bounded import match, naive_match
from repro.matching.match_result import MatchResult
from repro.matching.simulation import graph_simulation
from repro.workloads.patterns import engine_batch_workload

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LABELS = ["A", "B", "C"]


def bounded_pattern(bound=2) -> Pattern:
    pattern = Pattern(name="ab")
    pattern.add_node("A", "A")
    pattern.add_node("B", "B")
    pattern.add_edge("A", "B", bound)
    return pattern


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_bound_one_plans_simulation(self):
        plan = plan_query(bounded_pattern(1), snapshot_version=0)
        assert plan.strategy == STRATEGY_SIMULATION

    def test_bound_k_plans_bounded(self):
        plan = plan_query(bounded_pattern(3), snapshot_version=0)
        assert plan.strategy == STRATEGY_BOUNDED
        assert plan.max_bound == 3

    def test_unbounded_edge_plans_bounded(self):
        plan = plan_query(bounded_pattern("*"), snapshot_version=0)
        assert plan.strategy == STRATEGY_BOUNDED
        assert plan.has_unbounded

    def test_edgeless_pattern_plans_simulation(self):
        pattern = Pattern()
        pattern.add_node("A", "A")
        plan = plan_query(pattern, snapshot_version=0)
        assert plan.strategy == STRATEGY_SIMULATION

    def test_updates_plan_incremental(self):
        plan = plan_query(
            bounded_pattern(1),
            snapshot_version=0,
            updates=[EdgeUpdate("insert", "x", "y")],
        )
        assert plan.strategy == STRATEGY_INCREMENTAL

    def test_custom_oracle_disables_adjacency_fast_path(self):
        plan = plan_query(bounded_pattern(1), snapshot_version=0, custom_oracle=True)
        assert plan.strategy == STRATEGY_BOUNDED

    def test_cache_key_carries_version_and_strategy(self):
        pattern = bounded_pattern(2)
        plan_a = plan_query(pattern, snapshot_version=4)
        plan_b = plan_query(pattern, snapshot_version=5)
        assert plan_a.fingerprint == plan_b.fingerprint
        assert plan_a.cache_key != plan_b.cache_key

    def test_explain_mentions_strategy_and_reason(self):
        plan = plan_query(bounded_pattern(1), snapshot_version=0)
        text = plan.explain()
        assert "simulation" in text
        assert "bound 1" in text


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        key = ("fp", 0, "bounded")
        assert cache.get(key) is None
        cache.put(key, MatchResult.empty())
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_past_cap(self):
        cache = ResultCache(2)
        for index in range(3):
            cache.put((f"fp{index}", 0, "bounded"), MatchResult.empty())
        assert len(cache) == 2
        assert ("fp0", 0, "bounded") not in cache
        assert cache.evictions == 1

    def test_evict_stale_keeps_current_version(self):
        cache = ResultCache(8)
        cache.put(("fp", 0, "bounded"), MatchResult.empty())
        cache.put(("fp", 1, "bounded"), MatchResult.empty())
        assert cache.evict_stale(1) == 1
        assert ("fp", 1, "bounded") in cache

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(EngineError):
            ResultCache(0)


# ----------------------------------------------------------------------
# session basics
# ----------------------------------------------------------------------


class TestMatchSession:
    def test_match_agrees_with_free_function(self, random_graph):
        patterns = engine_batch_workload(random_graph, num_patterns=6, seed=5)
        session = MatchSession(random_graph)
        for pattern in patterns:
            assert session.match(pattern) == match(pattern, random_graph)

    def test_match_agrees_with_naive_reference(self, tiny_graph, tiny_pattern):
        session = MatchSession(tiny_graph)
        assert session.match(tiny_pattern) == naive_match(tiny_pattern, tiny_graph)

    def test_simulation_strategy_agrees_with_bounded(self, random_graph):
        # Bound-1 patterns take the adjacency fast path; the relation must
        # be identical to the oracle-driven bounded refinement.
        pattern = bounded_pattern(1)
        pattern.set_predicate("A", {"label": "L1"})
        pattern.set_predicate("B", {"label": "L2"})
        session = MatchSession(random_graph)
        assert session.plan(pattern).strategy == STRATEGY_SIMULATION
        oracle_session = MatchSession(
            random_graph, oracle=BFSDistanceOracle(random_graph)
        )
        assert oracle_session.plan(pattern).strategy == STRATEGY_BOUNDED
        assert session.match(pattern) == oracle_session.match(pattern)

    def test_simulate_matches_graph_simulation(self, random_graph):
        pattern = bounded_pattern(3)
        pattern.set_predicate("A", {"label": "L1"})
        pattern.set_predicate("B", {"label": "L2"})
        session = MatchSession(random_graph)
        assert session.simulate(pattern) == graph_simulation(pattern, random_graph)

    def test_empty_results_carry_pattern_nodes(self, tiny_graph):
        pattern = Pattern()
        pattern.add_node("A", "A")
        pattern.add_node("Z", "Z")  # no Z-labelled data node
        pattern.add_edge("A", "Z", 1)
        result = MatchSession(tiny_graph).match(pattern)
        assert result.is_empty
        assert result.pattern_nodes() == {"A", "Z"}

    def test_repeated_identical_queries_hit_the_cache(self, random_graph):
        session = MatchSession(random_graph)
        pattern = engine_batch_workload(random_graph, num_patterns=1, seed=9)[0]
        first = session.match(pattern)
        second = session.match(pattern)
        assert first is second  # served from the result cache, not recomputed
        stats = session.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        # A structurally identical copy (same fingerprint) also hits.
        assert session.match(pattern.copy(name="other")) is first
        assert session.stats()["cache_hits"] == 2

    def test_stats_report_plan_strategies(self, random_graph):
        session = MatchSession(random_graph)
        session.match(bounded_pattern(1))
        session.match(bounded_pattern(2))
        plans = session.stats()["plans"]
        assert plans.get(STRATEGY_SIMULATION, 0) >= 1
        assert plans.get(STRATEGY_BOUNDED, 0) >= 1

    def test_context_manager_clears_caches(self, random_graph):
        with MatchSession(random_graph) as session:
            session.match(bounded_pattern(2))
            assert session.stats()["cache_entries"] == 1
        assert session.stats()["cache_entries"] == 0

    def test_store_is_lazy_cached_and_version_guarded(self, tiny_graph):
        session = MatchSession(tiny_graph)
        store = session.store()
        assert session.store() is store  # cached while the snapshot stands
        compiled = session.snapshot
        a, d = compiled.id_of("a"), compiled.id_of("d")
        assert store.distance(a, d) == 2  # a -> b -> d
        session.patch_edge_delete("b", "d")
        rebuilt = session.store()  # snapshot moved -> fresh store
        assert rebuilt is not store
        assert rebuilt.distance(a, d) == 2  # a -> c -> d still holds
        session.patch_edge_delete("c", "d")
        assert session.store().distance(a, d) == INF

    def test_patch_insert_requires_known_nodes(self, tiny_graph):
        session = MatchSession(tiny_graph)
        with pytest.raises(NodeNotFoundError):
            session.patch_edge_insert("a", "missing")


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------


class TestInvalidation:
    def test_patch_insert_evicts_and_reserves_fresh_result(self, chain_graph):
        pattern = Pattern()
        pattern.add_node("0", {"label": "L0"})
        pattern.add_node("4", {"label": "L4"})
        pattern.add_edge("0", "4", 1)
        session = MatchSession(chain_graph)
        assert session.match(pattern).is_empty
        assert session.patch_edge_insert("n0", "n4")
        assert session.stats()["cache_entries"] == 0
        result = session.match(pattern)
        assert sorted(result.pairs()) == [("0", "n0"), ("4", "n4")]
        assert result == match(pattern, chain_graph)

    def test_standing_matchers_are_lru_capped(self, tiny_graph):
        from repro.engine.session import DEFAULT_MAX_MATCHERS

        session = MatchSession(tiny_graph)
        for index in range(DEFAULT_MAX_MATCHERS + 3):
            pattern = Pattern(name=f"m{index}")
            pattern.add_node("A", {"label": "A", "rank": index})
            session.incremental_matcher(pattern)
        assert session.stats()["incremental_matchers"] == DEFAULT_MAX_MATCHERS

    def test_patch_delete_is_noop_for_missing_edge(self, chain_graph):
        session = MatchSession(chain_graph)
        session.match(bounded_pattern(2))
        before = session.stats()["cache_entries"]
        assert not session.patch_edge_delete("n0", "n4")
        assert session.stats()["cache_entries"] == before

    def test_out_of_band_mutation_is_detected(self, chain_graph):
        pattern = Pattern()
        pattern.add_node("0", {"label": "L0"})
        pattern.add_node("4", {"label": "L4"})
        pattern.add_edge("0", "4", 1)
        session = MatchSession(chain_graph)
        assert session.match(pattern).is_empty
        chain_graph.add_edge("n0", "n4")  # behind the session's back
        assert not session.match(pattern).is_empty

    def test_update_stream_routes_through_incmatch_and_reseeds_cache(self):
        graph = DataGraph()
        for node, label in [("a", "A"), ("a2", "A"), ("b", "B")]:
            graph.add_node(node, label=label)
        graph.add_edge("a", "b")
        pattern = bounded_pattern(2)
        session = MatchSession(graph)
        baseline = session.match(pattern)
        assert sorted(baseline.pairs()) == [("A", "a"), ("B", "b")]
        result = session.match(pattern, updates=[EdgeUpdate("insert", "a2", "b")])
        assert sorted(result.pairs()) == [("A", "a"), ("A", "a2"), ("B", "b")]
        assert session.stats()["incremental_matchers"] == 1
        # The maintained result was seeded into the cache for plain match().
        hits_before = session.stats()["cache_hits"]
        assert session.match(pattern) is result
        assert session.stats()["cache_hits"] == hits_before + 1
        assert result == match(pattern, graph)


# ----------------------------------------------------------------------
# batch execution
# ----------------------------------------------------------------------


class TestMatchMany:
    def test_serial_batch_matches_per_call_loop(self, random_graph):
        patterns = engine_batch_workload(random_graph, num_patterns=8, seed=3)
        session = MatchSession(random_graph)
        results = session.match_many(patterns, parallel=False)
        assert results == [match(pattern, random_graph) for pattern in patterns]

    def test_duplicate_patterns_computed_once(self, random_graph):
        pattern = engine_batch_workload(random_graph, num_patterns=1, seed=4)[0]
        session = MatchSession(random_graph)
        results = session.match_many([pattern, pattern.copy()], parallel=False)
        assert results[0] is results[1]
        assert session.stats()["cache_entries"] == 1

    def test_warm_batch_is_all_cache_hits(self, random_graph):
        patterns = engine_batch_workload(random_graph, num_patterns=5, seed=6)
        session = MatchSession(random_graph)
        cold = session.match_many(patterns)
        hits_before = session.stats()["cache_hits"]
        warm = session.match_many(patterns)
        assert warm == cold
        assert session.stats()["cache_hits"] == hits_before + len(patterns)

    @pytest.mark.skipif(not fork_available(), reason="requires the fork start method")
    def test_pooled_batch_matches_serial(self, random_graph):
        patterns = engine_batch_workload(random_graph, num_patterns=6, seed=8)
        serial = MatchSession(random_graph).match_many(patterns, parallel=False)
        with MatchSession(random_graph) as session:
            pooled = session.match_many(patterns, parallel=True, max_workers=2)
            assert pooled == serial
            stats = session.stats()
            assert stats["parallel_batches"] == 1
            assert stats["forked_queries"] == len(patterns)
            assert stats["pool"]["serial_fallbacks"] == 0
            # The pooled results were cached in the parent ...
            assert session.match_many(patterns) == serial
            assert session.stats()["cache_hits"] >= len(patterns)
            # ... and the pool persists across batches: a second parallel
            # batch reuses the same workers instead of respawning.
            spawned = stats["pool"]["workers_spawned"]
            more = engine_batch_workload(random_graph, num_patterns=4, seed=9)
            assert session.match_many(more, parallel=True, max_workers=2) == [
                match(pattern, random_graph) for pattern in more
            ]
            assert session.stats()["pool"]["workers_spawned"] == spawned
        # Context-manager exit shut the pool down.
        assert session._pool is None

    def test_auto_heuristic_never_pools_tiny_batches(self, random_graph):
        # A handful of queries on a small graph must never pay the pool
        # spawn cost under the default ``parallel=None`` heuristic.
        session = MatchSession(random_graph)
        patterns = engine_batch_workload(random_graph, num_patterns=3, seed=11)
        results = session.match_many(patterns)
        assert results == [match(pattern, random_graph) for pattern in patterns]
        assert session._pool is None
        assert session.stats()["parallel_batches"] == 0
        assert session.stats()["pool"] is None

    @pytest.mark.skipif(not fork_available(), reason="requires the fork start method")
    def test_auto_heuristic_reuses_live_pool_for_small_batches(self, random_graph):
        with MatchSession(random_graph) as session:
            warmup = engine_batch_workload(random_graph, num_patterns=4, seed=8)
            session.match_many(warmup, parallel=True, max_workers=2)
            assert session._pool is not None and session._pool.started
            batches_before = session.stats()["parallel_batches"]
            # Once the pool is live, even a tiny batch rides it (dispatch is
            # just IPC; no spawn cost left to amortise).
            tiny = engine_batch_workload(random_graph, num_patterns=2, seed=13)
            assert session.match_many(tiny) == [
                match(pattern, random_graph) for pattern in tiny
            ]
            assert session.stats()["parallel_batches"] == batches_before + 1


# ----------------------------------------------------------------------
# property: no patch sequence may ever serve a stale cached result
# ----------------------------------------------------------------------


@st.composite
def graphs(draw, max_nodes=8):
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = DataGraph()
    for index in range(num_nodes):
        graph.add_node(index, label=draw(st.sampled_from(LABELS)))
    possible = [(i, j) for i in range(num_nodes) for j in range(num_nodes) if i != j]
    for source, target in draw(
        st.lists(st.sampled_from(possible), max_size=2 * num_nodes, unique=True)
    ):
        graph.add_edge(source, target)
    return graph


@st.composite
def patterns(draw, max_nodes=4):
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    pattern = Pattern()
    for index in range(num_nodes):
        pattern.add_node(index, draw(st.sampled_from(LABELS)))
    for index in range(1, num_nodes):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        pattern.add_edge(parent, index, draw(st.sampled_from([1, 2, "*"])))
    return pattern


@given(
    graph=graphs(),
    pattern=patterns(),
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
@SETTINGS
def test_property_patch_sequences_never_serve_stale_results(
    graph, pattern, flips, data
):
    """Any patch_edge_insert/delete sequence: the session answer always equals
    a fresh ``match()`` on an identical graph (the stale-cache detector)."""
    session = MatchSession(graph)
    session.match(pattern)  # populate the cache
    for source, target in flips:
        if source == target or source not in graph or target not in graph:
            continue
        if graph.has_edge(source, target):
            session.patch_edge_delete(source, target)
        else:
            session.patch_edge_insert(source, target)
        if data.draw(st.booleans(), label="query now"):
            expected = match(pattern, graph.copy())
            assert session.match(pattern) == expected
    assert session.match(pattern) == match(pattern, graph.copy())
