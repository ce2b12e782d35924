"""Equivalence suite for the compiled distance engine.

The flat BFS kernel and :class:`CompiledDistanceMatrix` must be
bit-for-bit / set-for-set identical to the dict-based BFS of
:class:`DataGraph` and the precomputed :class:`DistanceMatrix` on arbitrary
digraphs — including the nonempty-path corner cases (self-loops, cycles,
``bound`` of ``None``/``0``/``k``) and the stale-snapshot fallback.
"""

from __future__ import annotations

import inspect
import random
import sys

import pytest

from repro.datasets.synthetic_real import youtube_graph
from repro.distance.bfs import BFSDistanceOracle
from repro.analysis import sanitize
from repro.distance import compiled as compiled_distance
from repro.distance.compiled import (
    DENSE_BALL_MAX_NODES,
    CompiledDistanceMatrix,
    FlatBFSKernel,
)
from repro.distance.incremental import build_store
from repro.distance.matrix import DistanceMatrix, InternedDistanceStore
from repro.distance.oracle import INF, BoundedBitsCache
from repro.exceptions import DistanceOracleError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph, scale_free_graph
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import (
    candidate_bits,
    match,
    naive_match,
    refine_bits_to_fixpoint,
)

BOUNDS = [None, 0, 1, 2, 3]


def greatest_fixpoint(pattern, graph):
    """Per-node greatest fixpoint, by the naive iteration of ``naive_match``.

    Unlike ``naive_match`` it keeps every ``mat(u)`` even when another one is
    empty, so the refinement can be compared node by node.
    """
    mat = {
        u: {v for v in graph.nodes() if pattern.predicate(u).evaluate(graph.attributes(v))}
        for u in pattern.nodes()
    }
    changed = True
    while changed:
        changed = False
        for u, u_child in pattern.edges():
            bound = pattern.bound(u, u_child)
            survivors = {
                v for v in mat[u] if graph.descendants_within(v, bound) & mat[u_child]
            }
            if survivors != mat[u]:
                mat[u] = survivors
                changed = True
    return mat


def _random_digraph(seed: int, num_nodes: int = 24, num_edges: int = 60) -> DataGraph:
    graph = random_data_graph(num_nodes, num_edges, seed=seed)
    rng = random.Random(seed)
    # Sprinkle self-loops and short cycles — the nonempty-path corner cases.
    nodes = list(graph.nodes())
    for node in rng.sample(nodes, 3):
        graph.add_edge(node, node, strict=False)
    for _ in range(3):
        a, b = rng.sample(nodes, 2)
        graph.add_edge(a, b, strict=False)
        graph.add_edge(b, a, strict=False)
    return graph


@pytest.fixture(scope="module", params=[11, 22, 33])
def graph(request):
    return _random_digraph(request.param)


class TestFlatKernel:
    def test_ball_bits_match_dict_bfs(self, graph):
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        for node in graph.nodes():
            index = compiled.id_of(node)
            for bound in BOUNDS:
                forward = compiled.decode(kernel.ball_bits(index, bound))
                assert forward == graph.descendants_within(node, bound), (node, bound)
                backward = compiled.decode(kernel.ball_bits(index, bound, reverse=True))
                assert backward == graph.ancestors_within(node, bound), (node, bound)

    def test_distance_row_matches_dict_bfs(self, graph):
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        for node in graph.nodes():
            row = kernel.distance_row(compiled.id_of(node))
            reference = graph.bfs_distances(node)
            for other in graph.nodes():
                expected = reference.get(other, -1)
                assert row[compiled.id_of(other)] == expected, (node, other)

    def test_reverse_distance_row(self, graph):
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        for node in list(graph.nodes())[:6]:
            column = kernel.distance_row(compiled.id_of(node), reverse=True)
            reference = graph.bfs_distances(node, reverse=True)
            for other in graph.nodes():
                assert column[compiled.id_of(other)] == reference.get(other, -1)

    def test_adjacency_decode_is_reused_across_calls(self, graph):
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        kernel.distance_row(0)
        tuples_before = kernel._fwd_tuples
        assert tuples_before is not None
        for node in list(graph.nodes())[:5]:
            kernel.distance_row(compiled.id_of(node))
        # The decoded CSR is shared across searches at a fixed version.
        assert kernel._fwd_tuples is tuples_before

    def test_adjacency_decode_invalidated_by_version_bump(self, graph):
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        kernel.distance_row(0)
        graph.add_node("bump-marker")
        index = compiled.intern_node("bump-marker", {})
        kernel.distance_row(0)
        # The cached decode follows the bump: the interned node gets its row.
        assert len(kernel._fwd_tuples) == compiled.num_nodes
        assert kernel._fwd_tuples[index] == ()
        graph.remove_node("bump-marker")

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_patched_tuples_equal_a_fresh_decode(self, seed):
        """Row-by-row updates after mixed inserts, deletes and interned nodes."""
        graph = _random_digraph(seed)
        compiled = CompiledGraph.from_graph(graph)
        kernel = compiled.flat_kernel()
        rng = random.Random(seed)
        for step in range(40):
            kernel.adjacency_tuples()
            kernel.adjacency_tuples(reverse=True)
            nodes = graph.node_list()
            if step % 7 == 6:
                node = f"interned-{step}"
                graph.add_node(node)
                compiled.intern_node(node, {})
                continue
            source, target = rng.choice(nodes), rng.choice(nodes)
            if graph.has_edge(source, target):
                graph.remove_edge(source, target)
                compiled.patch_edge_delete(source, target)
            else:
                graph.add_edge(source, target)
                compiled.patch_edge_insert(source, target)
            fresh = compiled_distance.FlatBFSKernel(compiled)
            for reverse in (False, True):
                assert kernel.adjacency_tuples(reverse) == fresh.adjacency_tuples(reverse)
        for node in graph.nodes():
            index = compiled.id_of(node)
            assert {compiled.node_of(j) for j in kernel.adjacency_tuples()[index]} == (
                set(graph.successors(node))
            )
            assert {
                compiled.node_of(j) for j in kernel.adjacency_tuples(reverse=True)[index]
            } == set(graph.predecessors(node))

    def test_shared_kernel_per_snapshot(self, graph):
        compiled = compile_graph(graph)
        assert compiled.flat_kernel() is compiled.flat_kernel()

    def test_kernel_follows_patch_overlay(self):
        graph = _random_digraph(5)
        matrix = DistanceMatrix(graph)  # pins distances for the store
        compiled = compile_graph(graph)
        nodes = list(graph.nodes())
        source, target = nodes[0], nodes[7]
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
            compiled.patch_edge_insert(source, target)
        kernel = compiled.flat_kernel()
        for bound in BOUNDS:
            got = compiled.decode(kernel.ball_bits(compiled.id_of(source), bound))
            assert got == graph.descendants_within(source, bound), bound

    def test_kernel_grows_with_interned_nodes(self):
        graph = _random_digraph(6)
        compiled = compile_graph(graph)
        kernel = compiled.flat_kernel()
        kernel.ball_bits(0, 2)  # size the buffers before the graph grows
        graph.add_node("fresh")
        compiled.intern_node("fresh", {})
        graph.add_edge("fresh", list(graph.nodes())[0])
        compiled.patch_edge_insert("fresh", list(graph.nodes())[0])
        index = compiled.id_of("fresh")
        got = compiled.decode(kernel.ball_bits(index, None))
        assert got == graph.descendants_within("fresh", None)


class TestCompiledDistanceMatrix:
    def test_distances_agree_with_matrix(self, graph):
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        for source in graph.nodes():
            for target in graph.nodes():
                assert oracle.distance(source, target) == legacy.distance(
                    source, target
                ), (source, target)

    def test_balls_agree_with_matrix(self, graph):
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        for node in graph.nodes():
            for bound in BOUNDS:
                assert oracle.descendants_within(node, bound) == legacy.descendants_within(node, bound)
                assert oracle.ancestors_within(node, bound) == legacy.ancestors_within(node, bound)

    def test_nonempty_distance_and_within(self, graph):
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        for node in graph.nodes():
            assert oracle.nonempty_distance(node, node) == legacy.nonempty_distance(node, node)
        a, b = list(graph.nodes())[:2]
        for bound in BOUNDS:
            assert oracle.within(a, b, bound) == legacy.within(a, b, bound)

    def test_bits_agree_with_matrix_bits(self, graph):
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        compiled = compile_graph(graph)
        for node in graph.nodes():
            index = compiled.id_of(node)
            for bound in BOUNDS:
                assert oracle.descendants_within_bits(
                    compiled, index, bound
                ) == legacy.descendants_within_bits(compiled, index, bound)
                assert oracle.ancestors_within_bits(
                    compiled, index, bound
                ) == legacy.ancestors_within_bits(compiled, index, bound)

    def test_unknown_source_raises_unknown_target_is_inf(self, graph):
        oracle = CompiledDistanceMatrix(graph)
        with pytest.raises(DistanceOracleError):
            oracle.distance("ghost", list(graph.nodes())[0])
        assert oracle.distance(list(graph.nodes())[0], "ghost") == INF

    def test_refreshes_after_mutation(self):
        graph = _random_digraph(7)
        oracle = CompiledDistanceMatrix(graph)
        nodes = list(graph.nodes())
        source = nodes[0]
        oracle.descendants_within(source, 2)  # warm the caches
        assert oracle.in_sync
        target = next(n for n in nodes if not graph.has_edge(source, n) and n != source)
        graph.add_edge(source, target)
        assert not oracle.in_sync
        assert oracle.distance(source, target) == 1
        assert oracle.in_sync
        assert oracle.descendants_within(source, 1) == graph.descendants_within(source, 1)

    def test_stale_snapshot_falls_back(self):
        graph = _random_digraph(8)
        oracle = CompiledDistanceMatrix(graph)
        stale = CompiledGraph.from_graph(graph)
        nodes = list(graph.nodes())
        source = nodes[0]
        target = next(n for n in nodes if not graph.has_edge(source, n) and n != source)
        graph.add_edge(source, target)
        # `stale` was compiled one version ago; the oracle must answer about
        # the *current* graph, encoded in the stale snapshot's id space.
        index = stale.id_of(source)
        got = oracle.descendants_within_bits(stale, index, 1)
        assert got == stale.encode(graph.descendants_within(source, 1))
        got_anc = oracle.ancestors_within_bits(stale, stale.id_of(target), 1)
        assert got_anc == stale.encode(graph.ancestors_within(target, 1))

    def test_foreign_current_snapshot_answers_in_its_id_space(self, graph):
        oracle = CompiledDistanceMatrix(graph)
        other = CompiledGraph.from_graph(graph)  # same graph/version, not pinned
        assert other is not oracle.snapshot
        node = list(graph.nodes())[0]
        index = other.id_of(node)
        assert other.decode(
            oracle.descendants_within_bits(other, index, 2)
        ) == graph.descendants_within(node, 2)

    def test_row_lru_eviction_keeps_answers_correct(self, monkeypatch):
        monkeypatch.setattr(compiled_distance, "DEFAULT_ROW_CACHE_SIZE", 4)
        graph = _random_digraph(9)
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        for source in graph.nodes():
            for target in list(graph.nodes())[:5]:
                assert oracle.distance(source, target) == legacy.distance(source, target)
        assert oracle.cached_vectors() <= 4

    def test_bits_lru_is_bounded(self):
        graph = _random_digraph(10)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=8)
        for node in graph.nodes():
            for bound in BOUNDS:
                oracle.descendants_within(node, bound)
        assert len(oracle._bits_lru) <= 8

    def test_column_is_on_demand_reverse_bfs(self, graph):
        oracle = CompiledDistanceMatrix(graph)
        node = list(graph.nodes())[0]
        column = oracle.column_array(node)
        reference = graph.bfs_distances(node, reverse=True)
        compiled = oracle.snapshot
        for other in graph.nodes():
            assert column[compiled.id_of(other)] == reference.get(other, -1)

    def test_match_default_oracle_equals_legacy(self, graph):
        generator = PatternGenerator(graph, seed=3)
        for spec_seed in range(3):
            pattern = generator.generate(4, 4, 3)
            expected = naive_match(pattern, graph)
            assert match(pattern, graph) == expected  # default: CompiledDistanceMatrix
            assert match(pattern, graph, DistanceMatrix(graph)) == expected


class TestStoreHandoff:
    def test_build_store_equals_from_matrix(self, graph):
        compiled = compile_graph(graph)
        via_kernel = build_store(compiled)
        via_matrix = InternedDistanceStore.from_matrix(DistanceMatrix(graph), compiled)
        expected = sorted(
            (compiled.id_of(source), compiled.id_of(target), dist)
            for source in graph.nodes()
            for target, dist in graph.bfs_distances(source).items()
        )
        assert list(via_kernel.finite_pairs()) == expected
        assert list(via_matrix.finite_pairs()) == expected

    def test_build_store_roundtrip(self, graph):
        oracle = CompiledDistanceMatrix(graph)
        compiled = oracle.snapshot
        store = build_store(compiled)
        for source in graph.nodes():
            i = compiled.id_of(source)
            for target in graph.nodes():
                j = compiled.id_of(target)
                assert store.distance(i, j) == oracle.distance(source, target)


class TestWorklistRefinement:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_legacy_refinement(self, seed):
        graph = _random_digraph(seed * 7, num_nodes=20, num_edges=45)
        generator = PatternGenerator(graph, seed=seed)
        pattern = generator.generate(4, 5, 2)
        matrix = DistanceMatrix(graph)
        compiled = compile_graph(graph)

        initial = candidate_bits(pattern, compiled)
        mat_bits = dict(initial)
        removed_bits = refine_bits_to_fixpoint(pattern, matrix, compiled, mat_bits)

        expected = greatest_fixpoint(pattern, graph)
        decoded = {u: compiled.decode(bits) for u, bits in mat_bits.items()}
        assert decoded == expected
        assert {(u, compiled.node_of(v)) for u, v in removed_bits} == {
            (u, v)
            for u, bits in initial.items()
            for v in compiled.decode(bits) - expected[u]
        }

    def test_stop_when_empty_still_yields_empty_match(self):
        # An unsatisfiable pattern: the early exit may leave mat_bits partial,
        # but some set must be empty so the match wrappers return empty.
        graph = _random_digraph(17, num_nodes=18, num_edges=40)
        generator = PatternGenerator(graph, seed=17)
        pattern = generator.generate(4, 4, 1)
        # Make one pattern node unsatisfiable-after-refinement: bound-1 edge
        # to a node whose predicate nothing satisfies is caught upfront, so
        # instead compare against the full fixpoint on real patterns.
        compiled = compile_graph(graph)
        mat_full = candidate_bits(pattern, compiled)
        refine_bits_to_fixpoint(pattern, DistanceMatrix(graph), compiled, mat_full)
        mat_early = candidate_bits(pattern, compiled)
        refine_bits_to_fixpoint(
            pattern, DistanceMatrix(graph), compiled, mat_early, stop_when_empty=True
        )
        if any(not bits for bits in mat_full.values()):
            assert any(not bits for bits in mat_early.values())
        else:
            # No set ever empties: early-exit mode must be the exact fixpoint.
            assert mat_early == mat_full

    @pytest.mark.parametrize("oracle_cls", [DistanceMatrix, BFSDistanceOracle, CompiledDistanceMatrix])
    def test_all_oracles_reach_same_fixpoint(self, graph, oracle_cls):
        generator = PatternGenerator(graph, seed=13)
        pattern = generator.generate(5, 6, 3)
        compiled = compile_graph(graph)
        reference = candidate_bits(pattern, compiled)
        refine_bits_to_fixpoint(pattern, DistanceMatrix(graph), compiled, reference)
        mat_bits = candidate_bits(pattern, compiled)
        refine_bits_to_fixpoint(pattern, oracle_cls(graph), compiled, mat_bits)
        assert mat_bits == reference


class TestEdgeCases:
    def test_single_node_graph(self):
        graph = DataGraph()
        graph.add_node("only")
        oracle = CompiledDistanceMatrix(graph)
        assert oracle.distance("only", "only") == 0
        assert oracle.descendants_within("only", None) == set()
        graph.add_edge("only", "only")
        assert oracle.descendants_within("only", 1) == {"only"}

    def test_disconnected_nodes(self):
        graph = DataGraph()
        for name in ("a", "b", "c"):
            graph.add_node(name)
        oracle = CompiledDistanceMatrix(graph)
        assert oracle.distance("a", "b") == INF
        assert oracle.descendants_within("a", None) == set()
        assert oracle.ancestors_within("b", 3) == set()

    def test_scale_free_graph_agreement(self):
        graph = scale_free_graph(40, out_degree=3, seed=3)
        legacy = DistanceMatrix(graph)
        oracle = CompiledDistanceMatrix(graph)
        for node in list(graph.nodes())[::4]:
            for bound in (1, 3, None):
                assert oracle.descendants_within(node, bound) == legacy.descendants_within(node, bound)


class TestBoundedBitsCache:
    def test_lru_eviction_order(self):
        cache = BoundedBitsCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' becomes the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_bits_is_a_valid_entry(self):
        cache = BoundedBitsCache(4)
        cache.put("empty", 0)
        assert cache.get("empty") == 0
        assert "empty" in cache

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            BoundedBitsCache(0)


# ----------------------------------------------------------------------
# ball form: dense up to DENSE_BALL_MAX_NODES nodes, sparse above
# ----------------------------------------------------------------------

BALL_BOUNDS = [1, 2, 3, None]


#: Blocks the hub of :func:`_gadget_graph` fans out to.
FAN_BLOCKS = 200


def _gadget_graph(width: int) -> DataGraph:
    """*width* nodes in blocks of six, with one hub whose balls grow big.

    Per block ``b``: a chain ``b -> b+1 -> b+2 -> b+3``, a self-loop on
    ``b+1``, a 2-cycle ``b+2 <-> b+3``, an edge ``b+4 -> b`` into the chain
    and an isolated ``b+5`` whose balls are empty in both directions.  The
    hub ``4`` also points at the first :data:`FAN_BLOCKS` later blocks'
    ``b`` and is pointed at by their ``b+1`` (a 3-cycle through the hub),
    so balls around it outgrow the ``|V|/64`` members a sparse ball keeps
    as a tuple.
    """
    graph = DataGraph()
    for i in range(width):
        graph.add_node(i, label=i % 6)
    edges = []
    for b in range(0, width, 6):
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 1, b + 1)]
        edges += [(b + 3, b + 2), (b + 4, b)]
    for b in range(6, 6 * (FAN_BLOCKS + 1), 6):
        edges += [(4, b), (b + 1, 4)]
    for source, target in edges:
        if max(source, target) < width:
            graph.add_edge(source, target)
    return graph


@pytest.fixture(
    scope="module",
    params=[DENSE_BALL_MAX_NODES, DENSE_BALL_MAX_NODES + 1],
    ids=["at-threshold", "above-threshold"],
)
def gadget_graph(request):
    return _gadget_graph(request.param)


class TestBallForm:
    def test_chosen_ball_matches_both_kernel_forms_and_dict_bfs(self, gadget_graph):
        oracle = CompiledDistanceMatrix(gadget_graph, bits_cache_size=None)
        compiled = oracle.snapshot
        kernel = compiled.flat_kernel()
        dense = compiled.num_nodes <= DENSE_BALL_MAX_NODES
        limit = compiled.num_nodes >> 6
        node_of = compiled.node_of

        def as_set(ball):
            if type(ball) is int:
                return compiled.decode(ball)
            assert len(set(ball)) == len(ball)
            return {node_of(i) for i in ball}
        for node in gadget_graph.nodes():
            index = compiled.id_of(node)
            for bound in BALL_BOUNDS:
                for forward in (True, False):
                    if forward:
                        want = gadget_graph.descendants_within(node, bound)
                    else:
                        want = gadget_graph.ancestors_within(node, bound)
                    # A sparse ball stays a tuple up to |V|/64 members.
                    small = len(want) <= limit
                    ball = oracle._compact_ball(index, bound, forward)
                    assert type(ball) is (tuple if small and not dense else int)
                    bits = kernel.ball_bits(index, bound, reverse=not forward)
                    nodes = kernel.ball_nodes(index, bound, reverse=not forward)
                    assert type(nodes) is (tuple if small else int)
                    assert compiled.decode(bits) == want, (node, bound, forward)
                    assert as_set(nodes) == want, (node, bound, forward)
                    assert as_set(ball) == want, (node, bound, forward)

    def test_gadget_covers_the_corner_cases(self, gadget_graph):
        # Self-loop, 2-cycle and an empty ball, in both forms.
        assert 1 in gadget_graph.descendants_within(1, 1)
        assert 2 in gadget_graph.descendants_within(2, 2)
        assert 2 not in gadget_graph.descendants_within(2, 1)
        assert gadget_graph.descendants_within(5, None) == set()
        assert gadget_graph.ancestors_within(5, None) == set()
        # The hub's balls outgrow the sparse limit above the threshold.
        limit = (DENSE_BALL_MAX_NODES + 1) >> 6
        assert len(gadget_graph.descendants_within(4, 1)) > limit
        assert len(gadget_graph.ancestors_within(4, 1)) > limit
        assert 4 in gadget_graph.descendants_within(4, 3)
        assert 4 not in gadget_graph.descendants_within(4, 2)


class TestOneSearchPerMiss:
    @staticmethod
    def count_searches(monkeypatch):
        calls = {"ball_bits": [], "ball_nodes": []}
        for name in calls:
            original = getattr(FlatBFSKernel, name)

            def counting(self, *args, _original=original, _name=name, **kwargs):
                result = _original(self, *args, **kwargs)
                calls[_name].append(result)
                return result

            monkeypatch.setattr(FlatBFSKernel, name, counting)
        return calls

    @staticmethod
    def request_every_ball(oracle, compiled, sources):
        for index in sources:
            for bound in BALL_BOUNDS:
                oracle.descendants_compact(compiled, index, bound)
                oracle.descendants_within_bits(compiled, index, bound)
                oracle.ancestors_within_bits(compiled, index, bound)

    def test_small_graph_searches_each_miss_once_densely(self, graph, monkeypatch):
        calls = self.count_searches(monkeypatch)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        compiled = oracle.snapshot
        for _ in range(2):  # the second pass is all memo hits
            self.request_every_ball(oracle, compiled, range(compiled.num_nodes))
        misses = len(oracle._bits_lru)
        assert misses == 2 * len(BALL_BOUNDS) * compiled.num_nodes
        assert len(calls["ball_bits"]) == misses
        assert calls["ball_nodes"] == []

    def test_match_searches_each_miss_once(self, graph, monkeypatch):
        calls = self.count_searches(monkeypatch)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        pattern = PatternGenerator(graph, seed=3).generate(4, 4, 3)
        assert match(pattern, graph, oracle=oracle) == naive_match(pattern, graph)
        assert len(calls["ball_bits"]) == len(oracle._bits_lru) > 0
        assert calls["ball_nodes"] == []

    def test_wide_graph_searches_each_miss_once_sparsely(self, monkeypatch):
        graph = _gadget_graph(DENSE_BALL_MAX_NODES + 1)
        calls = self.count_searches(monkeypatch)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        compiled = oracle.snapshot
        sources = [4, *range(0, compiled.num_nodes, 97)]  # the hub, and block heads
        for _ in range(2):
            self.request_every_ball(oracle, compiled, sources)
        misses = len(oracle._bits_lru)
        assert misses == 2 * len(BALL_BOUNDS) * len(sources)
        assert len(calls["ball_nodes"]) == misses
        # Small balls stay tuples; big ones come back as bitsets from the
        # same walk, never from a second search.
        assert {type(ball) for ball in calls["ball_nodes"]} == {tuple, int}
        assert calls["ball_bits"] == []

    @pytest.mark.parametrize("width", [24, DENSE_BALL_MAX_NODES + 1])
    def test_sanitizer_checks_both_forms(self, width, monkeypatch):
        monkeypatch.setattr(sanitize, "ENABLED", True)
        checked = []
        primed = sanitize.primed_ball

        def recording(ball, num_nodes):
            checked.append(type(ball))
            primed(ball, num_nodes)

        monkeypatch.setattr(sanitize, "primed_ball", recording)
        graph = _gadget_graph(width)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        compiled = oracle.snapshot
        self.request_every_ball(oracle, compiled, [4, *range(0, width, 7)])
        assert len(checked) == len(oracle._bits_lru) > 0
        assert set(checked) == ({int} if width <= DENSE_BALL_MAX_NODES else {int, tuple})


# ----------------------------------------------------------------------
# composed balls: ball(v, b) from the memoised (b - 1)-balls of v's neighbours
# ----------------------------------------------------------------------

#: Requested highest first, so cold misses plan several levels deep.
COMPOSED_BOUNDS = [5, 4, 3, 2, 1, None]


def _hub_graph(seed: int) -> DataGraph:
    """Self-loops and 2-cycles (see :func:`_random_digraph`) plus a hub.

    The hub points at and is pointed at by a third of the nodes, so the
    plans of misses around it are wide and share many sub-balls.
    """
    graph = _random_digraph(seed, num_nodes=48, num_edges=96)
    nodes = list(graph.nodes())
    for node in nodes[1::3]:
        graph.add_edge(nodes[0], node, strict=False)
        graph.add_edge(node, nodes[0], strict=False)
    return graph


def _cycle(num_nodes: int) -> DataGraph:
    graph = DataGraph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        graph.add_edge(i, (i + 1) % num_nodes)
    return graph


def _record_kernel_calls(monkeypatch):
    """Each ``ball_bits`` call as ``(kind, source, bound, reverse)``.

    *kind* is ``"composed"`` when the call was given sub-balls, else
    ``"searched"``.
    """
    calls = []
    original = FlatBFSKernel.ball_bits

    def recording(self, source, bound, *, reverse=False, sub_balls=None):
        kind = "searched" if sub_balls is None else "composed"
        calls.append((kind, source, bound, reverse))
        return original(self, source, bound, reverse=reverse, sub_balls=sub_balls)

    monkeypatch.setattr(FlatBFSKernel, "ball_bits", recording)
    return calls


def _kinds(calls):
    return [kind for kind, *_ in calls]


def _assert_balls_equal_dict_bfs(oracle, graph):
    for bound in COMPOSED_BOUNDS:
        for node in graph.nodes():
            assert oracle.descendants_within(node, bound) == graph.descendants_within(
                node, bound
            ), (node, bound)
            assert oracle.ancestors_within(node, bound) == graph.ancestors_within(
                node, bound
            ), (node, bound)


class TestComposedBalls:
    @pytest.mark.parametrize("cache_size", [1, 2, 100, None])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_balls_equal_dict_bfs(self, seed, cache_size, monkeypatch):
        calls = _record_kernel_calls(monkeypatch)
        graph = _hub_graph(seed)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=cache_size)
        _assert_balls_equal_dict_bfs(oracle, graph)
        # Composing bound b memoises (b - 2) * |V| sub-balls at most: caps 1
        # and 2 leave no room, 100 holds those of bounds 3 and 4 on 48 nodes
        # (and evicts throughout), no cap holds every bound.
        composed = {bound for kind, _, bound, _ in calls if kind == "composed"}
        assert composed == {None: {3, 4, 5}, 100: {3, 4}}.get(cache_size, set())
        assert "searched" in _kinds(calls)

    def test_bounds_past_the_memo_room_are_searched(self, monkeypatch):
        graph = _cycle(50)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=100)  # room up to bound 4
        calls = _record_kernel_calls(monkeypatch)
        assert oracle.descendants_within(0, 4) == {1, 2, 3, 4}
        assert calls == [
            ("searched", 2, 2, False),
            ("composed", 1, 3, False),
            ("composed", 0, 4, False),
        ]
        assert oracle.descendants_within(0, 5) == {1, 2, 3, 4, 5}
        assert calls[3:] == [("searched", 0, 5, False)]

    def test_held_sub_balls_survive_eviction_mid_miss(self, monkeypatch):
        # With `evicting` set, every put empties the memo, as a consumer
        # sharing it could: the first sub-ball a miss memoises evicts the
        # hits its plan found, and the miss must still compose from them
        # and compute each sub-ball once.
        put = BoundedBitsCache.put
        evicting = [False]

        def put_maybe_evicting(self, key, value):
            put(self, key, value)
            if evicting[0]:
                self.clear()

        monkeypatch.setattr(BoundedBitsCache, "put", put_maybe_evicting)
        graph = _hub_graph(4)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        nodes = list(graph.nodes())
        calls = _record_kernel_calls(monkeypatch)
        for node in nodes:
            evicting[0] = False
            for warm in nodes[::2]:
                oracle.descendants_within(warm, 4)
            evicting[0] = True
            del calls[:]
            assert oracle.descendants_within(node, 5) == graph.descendants_within(node, 5)
            assert len(set(calls)) == len(calls)
            assert calls[-1][0] == "composed"

    def test_each_miss_is_one_call_and_sub_balls_are_memoised(self, monkeypatch):
        calls = _record_kernel_calls(monkeypatch)
        graph = _cycle(12)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        assert oracle.descendants_within(0, 5) == {1, 2, 3, 4, 5}
        # Bound 5 from bound 4 of node 1, ... down to the bound-2 search of 3.
        assert _kinds(calls) == ["searched", "composed", "composed", "composed"]
        assert set(oracle._bits_lru._data) == {(0, 5, True), (1, 4, True), (2, 3, True), (3, 2, True)}
        assert oracle.descendants_within(11, 6) == {0, 1, 2, 3, 4, 5}
        assert _kinds(calls[4:]) == ["composed"]  # one level, from the bound-5 ball of 0

    def test_deep_bound_on_a_cycle_does_not_recurse(self, monkeypatch):
        graph = _cycle(250)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        calls = _record_kernel_calls(monkeypatch)
        limit = sys.getrecursionlimit()
        # Far fewer frames than the 199 levels composed below.
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            ball = oracle.descendants_within(0, 200)
            back = oracle.ancestors_within(0, 250)
        finally:
            sys.setrecursionlimit(limit)
        assert ball == set(range(1, 201))
        assert back == set(range(250))
        assert _kinds(calls).count("composed") >= 2 * 198
        assert oracle.descendants_within(7, 254) == graph.descendants_within(7, 254)

    def test_balls_follow_patches_and_interned_nodes(self):
        graph = _hub_graph(6)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=64)
        _assert_balls_equal_dict_bfs(oracle, graph)
        compiled = oracle.snapshot
        nodes = list(graph.nodes())
        rng = random.Random(6)
        for _ in range(4):
            source, target = rng.sample(nodes, 2)
            if graph.has_edge(source, target):
                graph.remove_edge(source, target)
                compiled.patch_edge_delete(source, target)
            else:
                graph.add_edge(source, target)
                compiled.patch_edge_insert(source, target)
            _assert_balls_equal_dict_bfs(oracle, graph)
        graph.add_node("late")
        assert compile_graph(graph) is compiled  # interned, not recompiled
        for source, target in (("late", nodes[1]), (nodes[2], "late"), ("late", "late")):
            graph.add_edge(source, target)
            compiled.patch_edge_insert(source, target)
        _assert_balls_equal_dict_bfs(oracle, graph)
        assert oracle.snapshot is compiled

    def test_sanitizer_checks_every_memoised_ball(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ENABLED", True)
        checked = []
        primed = sanitize.primed_ball

        def recording(ball, num_nodes):
            checked.append(ball)
            primed(ball, num_nodes)

        monkeypatch.setattr(sanitize, "primed_ball", recording)
        calls = _record_kernel_calls(monkeypatch)
        graph = _hub_graph(5)
        oracle = CompiledDistanceMatrix(graph, bits_cache_size=None)
        _assert_balls_equal_dict_bfs(oracle, graph)
        assert len(checked) == len(calls) == len(oracle._bits_lru)
        assert "composed" in _kinds(calls)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8, 4)])
    def test_match_equals_naive_match_on_youtube(self, shape):
        graph = youtube_graph(0.05, seed=42)
        generator = PatternGenerator(graph, seed=11)
        for _ in range(2):
            pattern = generator.generate(*shape)
            expected = naive_match(pattern, graph)
            assert match(pattern, graph) == expected
            small = CompiledDistanceMatrix(graph, bits_cache_size=16)
            assert match(pattern, graph, oracle=small) == expected
