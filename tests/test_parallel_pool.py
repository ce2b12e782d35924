"""Tests for the persistent worker pool (repro.engine.parallel).

Covers the pool's four contracts:

* **equivalence** — pooled ``match_many`` returns exactly what the serial
  path returns, including across randomized patch sequences;
* **staleness** — tasks carry the snapshot version they were planned
  against, workers refuse versions they are not pinned to, and the parent
  recomputes those units serially;
* **lifecycle** — clean shutdown on ``close()``/context exit, GC reaping of
  abandoned pools, respawn after shutdown;
* **crash safety** — a killed worker never surfaces to the caller; the
  batch completes serially and the pool respawns on next use.
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from repro.engine import MatchSession, WorkerPool, fork_available
from repro.engine.parallel import _PendingTask
from repro.graph.generators import random_data_graph
from repro.graph.pattern import Pattern
from repro.matching.bounded import match
from repro.workloads.patterns import engine_batch_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the pool tests drive the fork start method"
)


def units_for(session, patterns):
    return [(pattern, session.plan(pattern)) for pattern in patterns]


def as_dicts(results):
    return [result.as_dict() for result in results]


@pytest.fixture
def pool_graph():
    return random_data_graph(300, 900, num_labels=8, seed=21)


@pytest.fixture
def workload(pool_graph):
    return engine_batch_workload(pool_graph, num_patterns=6, seed=23)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_run_units_matches_serial(self, pool_graph, workload):
        serial = [match(pattern, pool_graph) for pattern in workload]
        with MatchSession(pool_graph) as session:
            with WorkerPool(session, max_workers=2) as pool:
                pooled = pool.run_units(units_for(session, workload))
                assert as_dicts(pooled) == as_dicts(serial)
                assert pool.stats()["serial_fallbacks"] == 0

    def test_randomized_patch_sequences_stay_equivalent(self, pool_graph):
        rng = random.Random(77)
        patterns = engine_batch_workload(pool_graph, num_patterns=4, seed=29)
        nodes = list(pool_graph.nodes())
        with MatchSession(pool_graph) as session:
            for round_index in range(4):
                # Random mutations through the session's patch layer.
                for _ in range(3):
                    source, target = rng.sample(nodes, 2)
                    if pool_graph.has_edge(source, target):
                        session.patch_edge_delete(source, target)
                    else:
                        session.patch_edge_insert(source, target)
                pooled = session.match_many(patterns, parallel=True, max_workers=2)
                expected = [match(pattern, pool_graph) for pattern in patterns]
                assert as_dicts(pooled) == as_dicts(expected), (
                    f"divergence after patch round {round_index}"
                )


# ----------------------------------------------------------------------
# staleness handshake
# ----------------------------------------------------------------------


class TestStaleness:
    def test_patch_after_spawn_marks_tasks_stale(self, pool_graph, workload):
        with MatchSession(pool_graph) as session:
            pool = session.worker_pool(max_workers=2)
            assert pool.ensure()
            pinned = pool.pinned_version
            # Patch *after* the workers were spawned, then submit directly
            # (bypassing ensure()'s re-pin): every task must come back
            # ``stale`` and be recomputed serially by the parent.
            nodes = list(pool_graph.nodes())
            session.patch_edge_insert(nodes[0], nodes[3])
            assert session._compiled.version != pinned
            units = units_for(session, workload)
            results = [None] * len(units)
            pending = {}
            for slot, unit in enumerate(units):
                task = _PendingTask(slot, unit)
                pending[pool._dispatch(task)] = task
            assert pool._collect(pending, results)
            assert results == [None] * len(units)
            assert pool.stats()["stale_tasks"] == len(units)

    def test_repin_after_patch_restores_pooled_service(self, pool_graph, workload):
        with MatchSession(pool_graph) as session:
            session.match_many(workload, parallel=True, max_workers=2)
            pool = session._pool
            nodes = list(pool_graph.nodes())
            session.patch_edge_insert(nodes[1], nodes[4])
            pooled = session.match_many(workload, parallel=True, max_workers=2)
            expected = [match(pattern, pool_graph) for pattern in workload]
            assert as_dicts(pooled) == as_dicts(expected)
            stats = pool.stats()
            assert stats["repin_count"] == 1
            assert stats["pinned_version"] == session._compiled.version
            assert stats["serial_fallbacks"] == 0


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_session_close_shuts_pool_down(self, pool_graph, workload):
        session = MatchSession(pool_graph)
        session.match_many(workload, parallel=True, max_workers=2)
        pool = session._pool
        processes = list(pool._processes)
        assert processes and all(p.is_alive() for p in processes)
        session.close()
        assert session._pool is None
        assert not pool.started
        for process in processes:
            process.join(timeout=5.0)
            assert not process.is_alive()

    def test_shutdown_is_idempotent_and_pool_respawns(self, pool_graph, workload):
        with MatchSession(pool_graph) as session:
            pool = session.worker_pool(max_workers=2)
            serial = [match(pattern, pool_graph) for pattern in workload]
            assert as_dicts(pool.run_units(units_for(session, workload))) == as_dicts(
                serial
            )
            pool.shutdown()
            pool.shutdown()
            assert not pool.started
            # A stopped pool comes back on the next dispatch.
            assert as_dicts(pool.run_units(units_for(session, workload))) == as_dicts(
                serial
            )
            assert pool.stats()["workers_spawned"] == 4

    def test_abandoned_pool_is_reaped_by_gc(self, pool_graph, workload):
        session = MatchSession(pool_graph)
        pool = WorkerPool(session, max_workers=2)
        pool.run_units(units_for(session, workload[:2]))
        processes = list(pool._processes)
        assert all(p.is_alive() for p in processes)
        del pool  # no shutdown(): the weakref finalizer must stop the workers
        import gc

        gc.collect()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(p.is_alive() for p in processes):
                break
            time.sleep(0.05)
        assert not any(p.is_alive() for p in processes)
        session.close()

    def test_worker_pool_resizes_on_different_cap(self, pool_graph):
        with MatchSession(pool_graph) as session:
            first = session.worker_pool(max_workers=1)
            assert session.worker_pool() is first
            assert session.worker_pool(max_workers=1) is first
            second = session.worker_pool(max_workers=2)
            assert second is not first
            assert not first.started
            assert second.target_workers() == 2


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------


class TestCrashSafety:
    def test_killed_workers_never_surface_to_the_caller(self, pool_graph, workload):
        serial = [match(pattern, pool_graph) for pattern in workload]
        with MatchSession(pool_graph) as session:
            pool = WorkerPool(session, max_workers=2, task_timeout=0.5)
            with pool:
                assert pool.ensure()
                for process in pool._processes:
                    os.kill(process.pid, signal.SIGKILL)
                results = pool.run_units(units_for(session, workload))
                assert as_dicts(results) == as_dicts(serial)
                stats = pool.stats()
                assert stats["worker_crashes"] >= 1
                # The crash was healed — a pre-batch pool restart, a
                # mid-batch respawn, or serial fallback;
                # either way the batch is complete and extra workers were
                # spawned (or the parent computed) to cover it.
                reliability = pool.reliability_stats()
                assert (
                    stats["workers_spawned"] > 2
                    or reliability["respawns"] >= 1
                    or stats["serial_fallbacks"] >= 1
                )
                # The pool serves (and is fully staffed) on the next batch.
                again = pool.run_units(units_for(session, workload))
                assert as_dicts(again) == as_dicts(serial)
                assert pool.workers == 2

    def test_stopped_sibling_does_not_stall_the_batch(self, pool_graph, workload):
        serial = [match(pattern, pool_graph) for pattern in workload]
        with MatchSession(pool_graph) as session:
            pool = WorkerPool(session, max_workers=2, task_timeout=0.5)
            with pool:
                assert pool.ensure()
                # SIGSTOP one worker: alive for is_alive(), but unresponsive.
                victim = pool._processes[0]
                os.kill(victim.pid, signal.SIGSTOP)
                try:
                    start = time.monotonic()
                    results = pool.run_units(units_for(session, workload))
                    elapsed = time.monotonic() - start
                finally:
                    try:
                        os.kill(victim.pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
                # The live sibling (or the deadline machinery) must carry
                # the whole batch; the stopped worker must cost at most a
                # few deadline windows, never a 60 s DEFAULT_TASK_TIMEOUT
                # stall per task.
                assert as_dicts(results) == as_dicts(serial)
                assert elapsed < 30.0

    def test_unresponsive_sole_worker_is_detected_and_bypassed(
        self, pool_graph, workload
    ):
        serial = [match(pattern, pool_graph) for pattern in workload]
        with MatchSession(pool_graph) as session:
            pool = WorkerPool(session, max_workers=1, task_timeout=0.5)
            with pool:
                assert pool.ensure()
                # The *only* worker is stopped before dispatch, so every
                # task is stranded on the queue: the old code looped on
                # ``_result_queue.get`` forever (worker alive, nothing
                # arriving).  The first unacknowledged expiry must break the
                # pool and finish the batch serially.
                victim = pool._processes[0]
                os.kill(victim.pid, signal.SIGSTOP)
                start = time.monotonic()
                results = pool.run_units(units_for(session, workload))
                elapsed = time.monotonic() - start
                assert as_dicts(results) == as_dicts(serial)
                assert elapsed < 30.0
                reliability = pool.reliability_stats()
                stats = pool.stats()
                assert reliability["lost_tasks"] >= 1
                assert stats["serial_fallbacks"] == len(workload)
                # Breaking the pool SIGKILLed the stopped worker (SIGTERM
                # would have stayed queued behind the SIGSTOP).
                victim.join(timeout=5.0)
                assert not victim.is_alive()
                # The pool heals on the next batch.
                again = pool.run_units(units_for(session, workload))
                assert as_dicts(again) == as_dicts(serial)

    def test_all_workers_stopped_escalated_shutdown_reaps_them(
        self, pool_graph, workload
    ):
        serial = [match(pattern, pool_graph) for pattern in workload]
        with MatchSession(pool_graph) as session:
            pool = WorkerPool(session, max_workers=2, task_timeout=0.5)
            assert pool.ensure()
            processes = list(pool._processes)
            for process in processes:
                os.kill(process.pid, signal.SIGSTOP)
            # Every worker unresponsive: the batch must still complete
            # (quarantine kills + respawn, or serial fallback) ...
            results = pool.run_units(units_for(session, workload))
            assert as_dicts(results) == as_dicts(serial)
            # ... and shutdown's join → terminate → kill escalation must
            # reap even SIGSTOP'd processes (SIGTERM stays queued for a
            # stopped process; SIGKILL does not).
            pool.shutdown()
            for process in processes:
                process.join(timeout=5.0)
                assert not process.is_alive()


# ----------------------------------------------------------------------
# reliability: zombies, sanitizer propagation
# ----------------------------------------------------------------------


class TestReliability:
    def test_no_zombie_children_after_close(self, pool_graph, workload):
        import multiprocessing

        session = MatchSession(pool_graph)
        session.match_many(workload, parallel=True, max_workers=2)
        pool = session._pool
        processes = list(pool._processes)
        session.close()
        # active_children() joins finished processes: none of the pool's
        # workers may linger there (running or zombie) after close().
        remaining = {p.pid for p in multiprocessing.active_children()}
        for process in processes:
            assert not process.is_alive()
            assert process.pid not in remaining

    def test_no_zombie_children_after_gc_reap(self, pool_graph, workload):
        import gc
        import multiprocessing

        session = MatchSession(pool_graph)
        pool = WorkerPool(session, max_workers=2)
        pool.run_units(units_for(session, workload[:2]))
        processes = list(pool._processes)
        del pool  # no shutdown(): the finalizer must kill-escalate too
        gc.collect()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(p.is_alive() for p in processes):
                break
            time.sleep(0.05)
        remaining = {p.pid for p in multiprocessing.active_children()}
        for process in processes:
            assert not process.is_alive()
            assert process.pid not in remaining
        session.close()

    def test_sanitize_error_propagates_unswallowed(
        self, pool_graph, workload, monkeypatch
    ):
        from repro.analysis import sanitize

        with MatchSession(pool_graph) as session:
            pool = WorkerPool(session, max_workers=2, task_timeout=5.0)
            with pool:
                assert pool.ensure()
                monkeypatch.setattr(sanitize, "ENABLED", True)
                # A malformed result on the wire is an engine invariant
                # violation: the armed sanitizer must raise out of the
                # collect loop, not be treated as a lost task.
                pool._result_queue.put((0, 0, "bogus-status", None))
                with pytest.raises(sanitize.SanitizeError):
                    pool.run_units(units_for(session, workload[:2]))
