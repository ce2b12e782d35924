"""Chaos equivalence suite (repro.reliability.chaos).

The ground truth under test: **no matter which injected faults fire, pooled
results are identical to serial execution**.  Structure:

* a seed matrix of mixed-fault chaos runs (the acceptance gate);
* targeted runs that fire each fault kind deterministically (rate 1 with a
  per-process cap), so every detection/recovery path is provably covered —
  crash, hang and queue stall;
* the one failure rule: a task the pool loses is never sent again and is
  answered exactly once, by the parent.

Fault fire counters live in the worker processes, so every assertion here
reads the parent's recovery counters.
"""

from __future__ import annotations

import pytest

from repro.engine import MatchSession, WorkerPool, fork_available, parallel
from repro.graph.generators import random_data_graph
from repro.matching.bounded import match
from repro.reliability import faults
from repro.reliability.chaos import DEFAULT_CHAOS_PLAN, run_chaos
from repro.reliability.faults import FaultPlan
from repro.workloads.patterns import engine_batch_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the chaos suite drives the fork start method"
)

CHAOS_SEEDS = [101, 202, 303, 404, 505]


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def chaos_graph():
    return random_data_graph(250, 750, num_labels=8, seed=31)


@pytest.fixture
def chaos_patterns(chaos_graph):
    return engine_batch_workload(chaos_graph, num_patterns=5, seed=33)


def fresh_graph(seed=31):
    return random_data_graph(250, 750, num_labels=8, seed=seed)


# ----------------------------------------------------------------------
# the seed matrix
# ----------------------------------------------------------------------


class TestSeedMatrix:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_mixed_fault_schedule_survives(self, seed):
        # A fresh graph per seed: mutation rounds must not leak across
        # parametrized cases.
        graph = fresh_graph()
        patterns = engine_batch_workload(graph, num_patterns=5, seed=33)
        report = run_chaos(
            graph, patterns, seed=seed, plan=DEFAULT_CHAOS_PLAN, rounds=2
        )
        assert report.survived, f"seed {seed}: mismatches {report.mismatches}"
        assert report.rounds == 2 and report.queries == len(patterns)
        # The run must be adversarial, not a no-op: at least one injected
        # failure reached the parent's recovery accounting.
        activity = (
            report.reliability["worker_crashes"]
            + report.reliability["deadline_kills"]
            + report.pool["serial_fallbacks"]
        )
        assert activity >= 1, f"seed {seed} injected nothing"

    def test_report_round_trips_to_dict(self, chaos_graph, chaos_patterns):
        report = run_chaos(
            chaos_graph, chaos_patterns, seed=11, rounds=1, mutate=False
        )
        payload = report.to_dict()
        assert payload["survived"] is report.survived
        assert payload["seed"] == 11
        assert set(payload) >= {
            "plan",
            "rounds",
            "queries",
            "mismatches",
            "reliability",
            "pool",
        }


# ----------------------------------------------------------------------
# targeted fault-kind coverage (deterministic: rate 1, per-process caps)
# ----------------------------------------------------------------------


class TestFaultKindCoverage:
    def run_targeted(self, spec, seed=7):
        graph = fresh_graph()
        patterns = engine_batch_workload(graph, num_patterns=4, seed=33)
        report = run_chaos(
            graph, patterns, seed=seed, plan=spec, rounds=1, mutate=False
        )
        assert report.survived, f"{spec}: mismatches {report.mismatches}"
        return report

    def test_worker_crash_is_healed(self):
        report = self.run_targeted("worker.crash#1")
        assert report.reliability["worker_crashes"] >= 1

    def test_worker_hang_hits_the_deadline_kill_path(self):
        report = self.run_targeted("worker.hang#1~5")
        assert report.reliability["deadline_kills"] >= 1
        assert report.reliability["quarantined"] >= 1
        assert report.pool["serial_fallbacks"] >= 1

    def test_queue_stall_falls_back_to_the_parent(self):
        report = self.run_targeted("queue.stall#1")
        # A stalled worker acked its task, so the expiry is a deadline kill
        # of a live owner, and the task is answered by the parent.
        assert report.reliability["deadline_kills"] >= 1
        assert report.reliability["quarantined"] >= 1
        assert report.pool["serial_fallbacks"] >= 1


# ----------------------------------------------------------------------
# replacement workers draw fresh schedules
# ----------------------------------------------------------------------


def _report_first_draws(session, tasks, results, worker_id):
    """A worker loop that reports its first fault draws and exits."""
    results.put([faults.should_fire("worker.crash") for _ in range(32)])


class TestReplacementSchedules:
    @staticmethod
    def forked_draws(graph, seed, monkeypatch):
        """The first draws of a sole worker, then of its replacement."""
        monkeypatch.setattr(parallel, "_serve", _report_first_draws)
        with MatchSession(graph) as session:
            with WorkerPool(session, max_workers=1) as pool:
                faults.arm(FaultPlan.parse("worker.crash@0.5", seed=seed))
                try:
                    assert pool.ensure()
                    first = pool._result_queue.get(timeout=30)
                    pool._processes[0].join(timeout=30)
                    assert not pool._processes[0].is_alive()
                    assert pool._respawn_worker(0)
                    replacement = pool._result_queue.get(timeout=30)
                finally:
                    faults.disarm()
        return first, replacement

    @staticmethod
    def salted_draws(seed, salt):
        faults.arm(FaultPlan.parse("worker.crash@0.5", seed=seed), salt=salt)
        try:
            return [faults.should_fire("worker.crash") for _ in range(32)]
        finally:
            faults.disarm()

    def test_respawned_worker_does_not_replay_its_predecessor(
        self, chaos_graph, monkeypatch
    ):
        first, replacement = self.forked_draws(chaos_graph, 7, monkeypatch)
        assert replacement != first
        # The pool's fork serial is the salt: the first worker keeps salt 1,
        # its replacement takes salt 2.
        assert first == self.salted_draws(7, 1)
        assert replacement == self.salted_draws(7, 2)
        # Still a pure function of the seed.
        assert self.forked_draws(chaos_graph, 7, monkeypatch) == (first, replacement)


# ----------------------------------------------------------------------
# degradation: a lost task runs serially in the parent, once
# ----------------------------------------------------------------------


class TestDegradation:
    @pytest.mark.parametrize("count", [1, 6])
    def test_stalled_task_runs_once_in_the_parent(
        self, chaos_graph, monkeypatch, count
    ):
        patterns = engine_batch_workload(chaos_graph, num_patterns=6, seed=33)[:count]
        serial = [match(pattern, chaos_graph) for pattern in patterns]
        with MatchSession(chaos_graph) as session:
            units = [(pattern, session.plan(pattern)) for pattern in patterns]
            with WorkerPool(session, max_workers=2, task_timeout=0.5) as pool:
                # Workers inherit the armed plan at fork; the cap is per
                # process, so each worker withholds at most one answer.
                faults.arm(FaultPlan.parse("queue.stall#1", seed=1))
                try:
                    assert pool.ensure()
                finally:
                    faults.disarm()
                parent_runs = []
                execute = session._execute

                def counting_execute(pattern, plan):
                    parent_runs.append(pattern)
                    return execute(pattern, plan)

                monkeypatch.setattr(session, "_execute", counting_execute)
                first_id = pool._next_task_id
                results = pool.run_units(units)
                assert [r.as_dict() for r in results] == [r.as_dict() for r in serial]
                # Never sent again: one dispatch per unit, no retries.
                assert pool._next_task_id - first_id == len(units)
                stats = pool.stats()
                reliability = pool.reliability_stats()
                stalls = reliability["deadline_kills"]
                assert 1 <= stalls <= min(count, 2)
                # Answered exactly once, by the parent: one serial run per
                # stalled task.
                assert stats["serial_fallbacks"] == stalls
                assert len(parent_runs) == stalls
                assert reliability["quarantined"] == stalls
                assert reliability["lost_tasks"] == 0

    def test_stats_reliability_shape(self, chaos_graph, chaos_patterns):
        with MatchSession(chaos_graph) as session:
            session.match_many(chaos_patterns, parallel=True, max_workers=2)
            reliability = session.stats()["reliability"]
            assert set(reliability) == {
                "faults_armed",
                "deadline_kills",
                "quarantined",
                "respawns",
                "worker_crashes",
                "worker_errors",
                "lost_tasks",
            }
            assert reliability["faults_armed"] is None
            assert set(session._pool.stats()) == {
                "workers",
                "pinned_version",
                "workers_spawned",
                "repin_count",
                "queue_depth_hwm",
                "per_worker_executed",
                "worker_crashes",
                "serial_fallbacks",
                "stale_tasks",
            }
