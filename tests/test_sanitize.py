"""Runtime sanitizer tests (repro.analysis.sanitize).

Two layers: direct checks of each hook's contract, and armed integration
runs through the real engine paths proving the hooks fire on violations
and stay silent on healthy traffic.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError
from repro.distance.matrix import InternedDistanceStore
from repro.distance.oracle import BoundedBitsCache
from repro.engine import MatchSession, fork_available
from repro.engine.cache import ResultCache
from repro.engine.parallel import _PendingTask
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.match_result import MatchResult


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)


@pytest.fixture
def graph():
    return random_data_graph(30, 90, seed=14)


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "2"])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize._env_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize._env_enabled()


class TestCacheHooks:
    def test_none_value_is_rejected(self):
        with pytest.raises(SanitizeError):
            sanitize.cache_put("BoundedBitsCache", ("k",), None)

    def test_falsy_but_real_values_pass(self):
        sanitize.cache_put("BoundedBitsCache", ("k",), 0)
        sanitize.cache_put("BoundedBitsCache", ("k",), ())

    @pytest.mark.parametrize(
        "key",
        [
            ("fingerprint", "not-an-int", "strategy"),
            ("fingerprint", 3),
            "fingerprint",
            (3, 3, "strategy"),
        ],
    )
    def test_result_cache_key_shape(self, key):
        with pytest.raises(SanitizeError):
            sanitize.result_cache_put(key, object())

    def test_result_cache_value_type(self):
        with pytest.raises(SanitizeError):
            sanitize.result_cache_put(("fp", 0, "compiled"), object())

    def test_result_cache_accepts_order_digest_keys(self):
        # The key is (fingerprint, version, strategy); the retired 4-tuple
        # with a trailing edge-order digest is now malformed.
        sanitize.result_cache_put(("fp", 0, "bounded"), MatchResult.empty())
        for digest in ("seed", "sel:abc"):
            with pytest.raises(SanitizeError):
                sanitize.result_cache_put(("fp", 0, "bounded", digest), MatchResult.empty())

    def test_bits_cache_put_enforced_when_armed(self, armed):
        cache = BoundedBitsCache(8)
        with pytest.raises(SanitizeError):
            cache.put(("a", 2, True), None)
        cache.put(("a", 2, True), 0)
        assert cache.get(("a", 2, True)) == 0

    def test_result_cache_put_enforced_when_armed(self, armed):
        cache = ResultCache()
        with pytest.raises(SanitizeError):
            cache.put(("fp", "v1", "compiled"), object())


class TestPrimedBallHook:
    def test_sparse_and_dense_in_range(self):
        sanitize.primed_ball((0, 3, 7), 8)
        sanitize.primed_ball(0b1011, 8)
        sanitize.primed_ball((), 8)
        sanitize.primed_ball(0, 8)

    def test_sparse_out_of_range(self):
        with pytest.raises(SanitizeError):
            sanitize.primed_ball((0, 8), 8)
        with pytest.raises(SanitizeError):
            sanitize.primed_ball((-1,), 8)

    def test_dense_out_of_range(self):
        with pytest.raises(SanitizeError):
            sanitize.primed_ball(1 << 8, 8)

    def test_wrong_container(self):
        with pytest.raises(SanitizeError):
            sanitize.primed_ball([0, 1], 8)


class TestPoolHandshakeHooks:
    def test_good_task_and_result(self):
        sanitize.pool_task((7, 3, ("pattern", "plan")))
        sanitize.pool_result((0, 7, "ok", ("payload",)))
        sanitize.pool_result((0, 7, "stale", None))

    @pytest.mark.parametrize(
        "task",
        [
            (7, 3),
            ("7", 3, None),
            (7, None, None),
            # The retired kind field makes the wire tuple too long.
            (7, "unit", 3, None),
        ],
    )
    def test_bad_task(self, task):
        with pytest.raises(SanitizeError):
            sanitize.pool_task(task)

    @pytest.mark.parametrize(
        "item",
        [
            (0, 7, "ok"),
            ("0", 7, "ok", None),
            (0, 7, "done", None),
        ],
    )
    def test_bad_result(self, item):
        with pytest.raises(SanitizeError):
            sanitize.pool_result(item)


def pending_task(version=3):
    """One pending task 7 for a two-node pattern, dispatched at *version*."""
    pattern = Pattern()
    pattern.add_node("a", "A")
    pattern.add_node("b", "B")
    task = _PendingTask(0, (pattern, None))
    task.version = version
    return {7: task}


class TestPoolPayloadHook:
    def test_one_bitset_per_pattern_node_passes(self):
        pending = pending_task()
        sanitize.pool_result((0, 7, "ok", {"a": 5, "b": 1 << 90}), pending, 3)
        # An empty relation ships zeros.
        sanitize.pool_result((0, 7, "ok", {"a": 0, "b": 0}), pending, 3)
        # Only ok answers of pending tasks carry a bitset payload.
        sanitize.pool_result((0, 7, "stale", None), pending, 3)
        sanitize.pool_result((0, 8, "ok", None), pending, 3)

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {"a": 5},
            {"a": 5, "c": 1},
            {"a": 5, "b": 1, "c": 2},
            {"a": 5, "b": "1"},
            {"a": 5, "b": 1.0},
            {"a": -1, "b": 1},
            # A decoded answer is not what the parent wraps.
            MatchResult({"a": {"x"}, "b": {"y"}}),
            {"a": {"x"}, "b": {"y"}},
        ],
    )
    def test_malformed_payload_is_flagged(self, payload):
        with pytest.raises(SanitizeError, match="one bitset int per pattern node"):
            sanitize.pool_result((0, 7, "ok", payload), pending_task(), 3)

    def test_snapshot_moved_since_dispatch_is_flagged(self):
        with pytest.raises(SanitizeError, match="dispatched at snapshot v3"):
            sanitize.pool_result((0, 7, "ok", {"a": 5, "b": 1}), pending_task(), 4)

    @pytest.mark.skipif(not fork_available(), reason="the pool needs fork")
    def test_armed_pooled_batch_raises_no_alarms(self, armed, graph):
        generator = PatternGenerator(graph, seed=5)
        patterns = [generator.generate(3, 3, 2) for _ in range(4)]
        with MatchSession(graph) as serial:
            expected = [serial.match(pattern) for pattern in patterns]
        with MatchSession(graph) as session:
            pooled = session.match_many(patterns, parallel=True, max_workers=2)
            assert session.stats()["pool"]["serial_fallbacks"] == 0
        assert pooled == expected


def _missing_edge(graph):
    nodes = list(graph.nodes())
    for source in nodes:
        for target in nodes:
            if source != target and not graph.has_edge(source, target):
                return source, target
    raise AssertionError("graph is complete")


class TestPatchHooks:
    def test_healthy_patch_passes(self, armed, graph):
        compiled = compile_graph(graph)
        source, target = _missing_edge(graph)
        graph.add_edge(source, target)
        compiled.patch_edge_insert(source, target)
        assert compiled.version == graph.version

    def test_snapshot_ahead_of_graph_is_flagged(self, armed, graph):
        compiled = compile_graph(graph)
        compiled.version = graph.version + 3
        source, target = _missing_edge(graph)
        graph.add_edge(source, target)
        with pytest.raises(SanitizeError):
            compiled.patch_edge_insert(source, target)

    def test_patch_applied_direct(self, graph):
        compiled = compile_graph(graph)
        sanitize.patch_applied(compiled)
        compiled.version = graph.version + 1
        with pytest.raises(SanitizeError):
            sanitize.patch_applied(compiled)


class TestStoreAdoptionHook:
    def test_current_store_passes(self, armed, graph):
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        sanitize.store_adopted(compiled, store)
        assert MatchSession(graph).store() is store

    def test_stamp_behind_snapshot_is_flagged(self, graph):
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        store.version -= 1
        with pytest.raises(SanitizeError):
            sanitize.store_adopted(compiled, store)

    def test_store_of_another_snapshot_is_flagged(self, graph):
        store = compile_graph(graph).distance_store()
        other = compile_graph(random_data_graph(30, 90, seed=15))
        with pytest.raises(SanitizeError):
            sanitize.store_adopted(other, store)

    def test_missing_rows_are_flagged(self, graph):
        compiled = CompiledGraph.from_graph(graph)
        store = compiled.distance_store()
        # Interned into the snapshot without growing the store, which is
        # still stamped current: the late node has no row.
        compiled.intern_node("late", {"label": "L0"})
        assert store.version == compiled.version == graph.version
        with pytest.raises(SanitizeError):
            sanitize.store_adopted(compiled, store)

    def test_lookup_on_a_snapshot_behind_its_graph_is_flagged(self, armed, graph):
        compiled = compile_graph(graph)
        graph.add_node("late", label="L0")
        with pytest.raises(SanitizeError):
            compiled.distance_store()


class TestInternedStoreMemo:
    def test_set_distance_invalidates_memo_eagerly(self, graph):
        compiled = compile_graph(graph)
        store = InternedDistanceStore(compiled)
        before = store.descendants_within_bits(compiled, 0, 1)
        assert not before & (1 << 1)
        store.set_distance(0, 1, 1)
        after = store.descendants_within_bits(compiled, 0, 1)
        assert after & (1 << 1)


class TestArmedEngineRuns:
    def test_full_match_run_raises_no_alarms(self, armed, graph):
        generator = PatternGenerator(graph, seed=3, unbounded_probability=0.2)
        with MatchSession(graph) as session:
            for _ in range(3):
                pattern = generator.generate(4, 4, 3)
                first = session.match(pattern)
                # Second run exercises the result-cache read path.
                assert session.match(pattern) == first
