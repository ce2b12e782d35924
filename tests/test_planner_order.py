"""The cost-based planner: cardinality estimates, edge order, ordered kernel.

Three layers are pinned here:

* the **stats surface** — ``CompiledGraph.cardinality`` (version-pinned
  index popcounts) and :func:`repro.graph.statistics.index_statistics`;
* the **plan** — ``plan_query(..., compiled=...)`` fills
  ``QueryPlan.cardinalities`` / ``edge_order``, the cache key stays
  order-free, and ``explain()`` shows the why;
* the **kernel** — ``refine_bits_to_fixpoint(..., edge_order=...)``
  computes the same greatest fixpoint as the seed order (chaotic iteration
  of a monotone operator is order-independent), checked on randomized
  graph/pattern populations including cycles and unbounded edges.
"""

from __future__ import annotations

import pytest

from repro.distance.compiled import CompiledDistanceMatrix
from repro.engine import MatchSession
from repro.engine.planner import STRATEGY_BOUNDED, plan_query
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph, skewed_label_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.graph.predicates import TRUE, parse_predicate
from repro.graph.statistics import (
    estimate_cardinality,
    index_statistics,
    strongly_connected_components,
)
from repro.matching.bounded import candidate_bits, refine_bits_to_fixpoint
from repro.workloads.patterns import skewed_chain_workload


def labelled_graph() -> DataGraph:
    graph = DataGraph(name="labelled")
    for index in range(9):
        graph.add_node(f"n{index}", label="common" if index < 6 else "rare")
    for index in range(8):
        graph.add_edge(f"n{index}", f"n{index + 1}")
    return graph


def chain_star_pattern(bound: int = 2) -> Pattern:
    pattern = Pattern(name="chain-star")
    pattern.add_node("u0", "common")
    pattern.add_node("u1", "common")
    pattern.add_node("leaf", "rare")
    pattern.add_edge("u0", "u1", bound)
    pattern.add_edge("u1", "leaf", bound)
    return pattern


# ----------------------------------------------------------------------
# stats surface
# ----------------------------------------------------------------------


class TestCardinality:
    def test_equality_atom_uses_index_popcount(self):
        compiled = compile_graph(labelled_graph())
        assert compiled.cardinality(parse_predicate({"label": "common"})) == 6
        assert compiled.cardinality(parse_predicate({"label": "rare"})) == 3
        assert compiled.cardinality(parse_predicate({"label": "absent"})) == 0

    def test_wildcard_estimates_all_nodes(self):
        compiled = compile_graph(labelled_graph())
        assert compiled.cardinality(TRUE) == compiled.num_nodes

    def test_non_indexable_atoms_keep_the_upper_bound(self):
        # `>` atoms are not index-resolvable; the estimate must stay an
        # upper bound (here: no indexed atom at all -> |V|).
        graph = labelled_graph()
        for index, node in enumerate(graph.nodes()):
            graph.set_attributes(node, age=index)
        compiled = compile_graph(graph)
        estimate = compiled.cardinality(parse_predicate("age > 3"))
        assert estimate == compiled.num_nodes

    def test_conjunction_takes_the_indexed_minimum(self):
        graph = labelled_graph()
        for index, node in enumerate(sorted(graph.nodes(), key=str)):
            graph.set_attributes(node, parity="even" if index % 2 == 0 else "odd")
        compiled = compile_graph(graph)
        both = compiled.cardinality(parse_predicate({"label": "rare", "parity": "even"}))
        assert both <= 3
        assert both == len(
            [
                node
                for node in graph.nodes()
                if graph.attributes(node).get("label") == "rare"
                and graph.attributes(node).get("parity") == "even"
            ]
        )

    def test_estimate_is_memoised_per_version(self):
        compiled = compile_graph(labelled_graph())
        predicate = parse_predicate({"label": "common"})
        first = compiled.cardinality(predicate)
        assert compiled.cardinality(predicate) == first
        assert estimate_cardinality(compiled, predicate) == first


class TestIndexStatistics:
    def test_counts_and_top_pairs(self):
        stats = index_statistics(compile_graph(labelled_graph()))
        assert stats.num_nodes == 9
        assert stats.num_edges == 8
        top = dict(stats.top_pairs)
        assert top[("label", "common")] == 6
        assert top[("label", "rare")] == 3
        assert stats.max_bucket == 6
        assert stats.as_row()

    def test_scc_wrapper_is_sinks_first(self):
        pattern = Pattern()
        for name in ("a", "b", "c"):
            pattern.add_node(name, "x")
        pattern.add_edge("a", "b", 1)
        pattern.add_edge("b", "c", 1)
        components = strongly_connected_components(pattern)
        assert [sorted(component) for component in components] == [["c"], ["b"], ["a"]]


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


class TestPlanOrdering:
    def test_plan_orders_rare_leaf_first(self):
        graph = labelled_graph()
        compiled = compile_graph(graph)
        plan = plan_query(chain_star_pattern(), snapshot_version=0, compiled=compiled)
        assert plan.strategy == STRATEGY_BOUNDED
        assert dict(plan.cardinalities) == {"u0": 6, "u1": 6, "leaf": 3}
        # Sinks first: the leaf edge seeds before the chain edge.
        assert plan.edge_order == (("u1", "leaf"), ("u0", "u1"))

    def test_near_uniform_estimates_keep_seed_order(self):
        # Ordering buys nothing when every candidate set is the same size:
        # the planner must keep the seed order below the skew threshold.
        graph = DataGraph()
        for index in range(8):
            graph.add_node(f"n{index}", label="even" if index % 2 == 0 else "odd")
        for index in range(7):
            graph.add_edge(f"n{index}", f"n{index + 1}")
        pattern = Pattern()
        pattern.add_node("a", "even")
        pattern.add_node("b", "odd")
        pattern.add_edge("a", "b", 2)
        plan = plan_query(pattern, snapshot_version=0, compiled=compile_graph(graph))
        assert dict(plan.cardinalities) == {"a": 4, "b": 4}
        assert plan.edge_order == ()
        assert "near-uniform" in plan.explain()

    def test_without_compiled_stays_seed_order(self):
        plan = plan_query(chain_star_pattern(), snapshot_version=0)
        assert plan.cardinalities == ()
        assert plan.edge_order == ()

    def test_opt_out_flag_stays_seed_order(self):
        compiled = compile_graph(labelled_graph())
        plan = plan_query(
            chain_star_pattern(),
            snapshot_version=0,
            compiled=compiled,
            selectivity_order=False,
        )
        assert plan.edge_order == ()

    def test_cache_key_is_order_sensitive(self):
        compiled = compile_graph(labelled_graph())
        pattern = chain_star_pattern()
        ordered = plan_query(pattern, snapshot_version=0, compiled=compiled)
        seed = plan_query(
            pattern, snapshot_version=0, compiled=compiled, selectivity_order=False
        )
        assert ordered.fingerprint == seed.fingerprint
        # Both orders reach the same greatest fixpoint, so the edge order
        # is not part of the key: the two plans share one cache entry.
        assert ordered.edge_order != seed.edge_order
        assert ordered.cache_key == seed.cache_key
        # ResultCache.evict_stale reads key[1]: the snapshot version must
        # stay at index 1 of the 3-tuple cache key.
        assert ordered.cache_key == (ordered.fingerprint, 0, STRATEGY_BOUNDED)

    def test_explain_shows_estimates_order_and_digest(self):
        compiled = compile_graph(labelled_graph())
        plan = plan_query(chain_star_pattern(), snapshot_version=0, compiled=compiled)
        text = plan.explain()
        assert "estimated candidates (index popcounts)" in text
        assert "leaf~3" in text
        assert "refinement order: u1->leaf, u0->u1" in text
        assert "/v0/bounded" in text
        assert "selectivity" in text

    def test_session_plan_carries_the_order(self):
        with MatchSession(labelled_graph()) as session:
            plan = session.plan(chain_star_pattern())
            assert plan.edge_order == (("u1", "leaf"), ("u0", "u1"))
            assert "refinement order" in session.explain(chain_star_pattern())

    def test_session_opt_out(self):
        with MatchSession(labelled_graph(), selectivity_order=False) as session:
            assert session.plan(chain_star_pattern()).edge_order == ()


# ----------------------------------------------------------------------
# the ordered kernel
# ----------------------------------------------------------------------


def kernel_fixpoint(pattern: Pattern, graph: DataGraph, edge_order=None):
    oracle = CompiledDistanceMatrix(graph)
    compiled = oracle.snapshot
    mat_bits = candidate_bits(pattern, compiled)
    refine_bits_to_fixpoint(pattern, oracle, compiled, mat_bits, edge_order=edge_order)
    return mat_bits


class TestOrderedKernelEquivalence:
    def test_ordered_equals_seed_on_chain_star(self):
        graph = labelled_graph()
        pattern = chain_star_pattern()
        baseline = kernel_fixpoint(pattern, graph)
        ordered = kernel_fixpoint(
            pattern, graph, edge_order=[("u1", "leaf"), ("u0", "u1")]
        )
        assert ordered == baseline

    def test_stale_order_falls_back_to_seed(self):
        # An edge_order that does not cover the pattern's edges exactly
        # (stale plan for a mutated pattern) must be ignored, not crash.
        graph = labelled_graph()
        pattern = chain_star_pattern()
        baseline = kernel_fixpoint(pattern, graph)
        assert kernel_fixpoint(pattern, graph, edge_order=[("u0", "u1")]) == baseline
        assert (
            kernel_fixpoint(
                pattern, graph, edge_order=[("u0", "u1"), ("u0", "leaf")]
            )
            == baseline
        )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_randomized_sessions_agree(self, seed):
        graph = random_data_graph(220, 700, num_labels=6, seed=seed)
        generator = PatternGenerator(graph, seed=seed)
        patterns = []
        for index in range(6):
            bound = 1 + index % 3
            # Mix DAGs and potentially cyclic patterns.
            if index % 2:
                patterns.append(generator.generate(4, 5, bound))
            else:
                patterns.append(generator.generate_dag(4, 4, bound))
        with MatchSession(graph) as ordered_session, MatchSession(
            graph, selectivity_order=False
        ) as seed_session:
            for pattern in patterns:
                ordered = ordered_session.match(pattern)
                baseline = seed_session.match(pattern)
                assert ordered.as_dict() == baseline.as_dict()

    def test_skewed_workload_sessions_agree(self):
        graph = skewed_label_graph(600, 1800, num_labels=12, skew=1.3, seed=5)
        patterns = skewed_chain_workload(graph, num_patterns=4, bound=2, seed=5)
        with MatchSession(graph) as ordered_session, MatchSession(
            graph, selectivity_order=False
        ) as seed_session:
            for pattern in patterns:
                assert (
                    ordered_session.match(pattern).as_dict()
                    == seed_session.match(pattern).as_dict()
                )

    def test_cyclic_pattern_keeps_counting_path(self):
        # A pattern cycle can never be "final" edge-by-edge; the ordered
        # kernel must still converge to the seed-order fixpoint.
        graph = DataGraph()
        for index in range(6):
            graph.add_node(f"n{index}", label="x")
        for index in range(6):
            graph.add_edge(f"n{index}", f"n{(index + 1) % 6}")
        pattern = Pattern()
        pattern.add_node("a", "x")
        pattern.add_node("b", "x")
        pattern.add_edge("a", "b", 2)
        pattern.add_edge("b", "a", 2)
        baseline = kernel_fixpoint(pattern, graph)
        ordered = kernel_fixpoint(pattern, graph, edge_order=[("b", "a"), ("a", "b")])
        assert ordered == baseline


# ----------------------------------------------------------------------
# session cache satellites
# ----------------------------------------------------------------------


class TestSessionIntegration:
    def test_repeat_queries_hit_cache_under_ordering(self):
        graph = labelled_graph()
        pattern = chain_star_pattern()
        with MatchSession(graph) as session:
            first = session.match(pattern)
            second = session.match(pattern)
            assert first.as_dict() == second.as_dict()
            assert session.stats()["cache_hits"] >= 1

    def test_pattern_fingerprint_is_memoised_and_invalidated(self):
        pattern = chain_star_pattern()
        first = pattern.fingerprint()
        assert pattern.fingerprint() == first
        assert pattern._fingerprint is not None
        pattern.add_node("extra", "rare")
        assert pattern._fingerprint is None
        assert pattern.fingerprint() != first
