"""Chaos equivalence suite (repro.reliability.chaos).

The ground truth under test: **no matter which injected faults fire, pooled
results are identical to serial execution**.  Structure:

* a seed matrix of mixed-fault chaos runs (the acceptance gate);
* targeted runs that fire each fault kind deterministically (rate 1 with a
  per-process cap), so every detection/recovery path is provably covered —
  crash, hang, queue stall, result corruption, task corruption, snapshot
  skew and cache pressure;
* the degradation layer: circuit-breaker trip + half-open recovery on a
  fake clock, and the batch time budget's ``PartialBatchError``.
"""

from __future__ import annotations

import pytest

from repro.engine import MatchSession, fork_available
from repro.exceptions import PartialBatchError
from repro.graph.generators import random_data_graph
from repro.matching.bounded import match
from repro.reliability import faults
from repro.reliability.chaos import DEFAULT_CHAOS_PLAN, run_chaos
from repro.reliability.faults import FaultPlan
from repro.reliability.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
)
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


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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
        # The run must be adversarial, not a no-op: at least one fault
        # evaluation stream fired somewhere (parent counters or worker
        # notes or crash/kill accounting).
        activity = (
            sum(report.injections.values())
            + sum(report.reliability["worker_fault_notes"].values())
            + report.reliability["worker_crashes"]
            + report.reliability["deadline_kills"]
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
            "injections",
            "reliability",
            "pool",
        }


# ----------------------------------------------------------------------
# targeted fault-kind coverage (deterministic: rate 1, per-process caps)
# ----------------------------------------------------------------------


class TestFaultKindCoverage:
    def run_targeted(self, spec, seed=7, **kwargs):
        graph = fresh_graph()
        patterns = engine_batch_workload(graph, num_patterns=4, seed=33)
        report = run_chaos(
            graph,
            patterns,
            seed=seed,
            plan=spec,
            rounds=1,
            mutate=False,
            **kwargs,
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
        assert report.reliability["worker_fault_notes"].get("worker.hang", 0) >= 1

    def test_queue_stall_is_redispatched(self):
        report = self.run_targeted("queue.stall#1")
        assert report.reliability["worker_fault_notes"].get("queue.stall", 0) >= 1
        assert (
            report.reliability["deadline_kills"] >= 1
            or report.reliability["retries"] >= 1
            or report.pool["serial_fallbacks"] >= 1
        )

    def test_result_corruption_is_rejected_and_retried(self):
        report = self.run_targeted("result.corrupt#1")
        assert report.reliability["corrupt_results"] >= 1
        assert (
            report.reliability["retries"] >= 1
            or report.pool["serial_fallbacks"] >= 1
        )

    def test_task_corruption_is_recovered(self):
        report = self.run_targeted("task.corrupt#1")
        assert report.injections.get("task.corrupt", 0) >= 1

    def test_snapshot_skew_degrades_to_stale_serial(self):
        report = self.run_targeted("snapshot.skew#2")
        assert report.injections.get("snapshot.skew", 0) >= 1
        assert report.pool["stale_tasks"] >= 1
        assert report.pool["serial_fallbacks"] >= 1

    def test_cache_pressure_sheds_and_recomputes(self):
        report = self.run_targeted("cache.pressure")
        assert report.injections.get("cache.pressure", 0) >= 1
        assert report.reliability["cache_pressure_sheds"] >= 1


# ----------------------------------------------------------------------
# degradation: circuit breaker + batch budget
# ----------------------------------------------------------------------


class TestDegradation:
    def test_breaker_trips_degrades_and_recovers(self, chaos_graph):
        workloads = [
            engine_batch_workload(chaos_graph, num_patterns=3, seed=s)
            for s in (41, 43, 47, 53)
        ]
        expected = [
            [match(p, chaos_graph) for p in workload] for workload in workloads
        ]
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=30.0, clock=clock)
        with MatchSession(chaos_graph, breaker=breaker) as session:
            session.worker_pool(
                max_workers=2,
                task_timeout=0.5,
                retry_policy=RetryPolicy(max_retries=0),
            )
            # Two consecutive crash-storm batches trip the breaker.
            faults.arm(FaultPlan.parse("worker.crash", seed=3))
            try:
                for index in (0, 1):
                    got = session.match_many(workloads[index], parallel=True)
                    assert [r.as_dict() for r in got] == [
                        r.as_dict() for r in expected[index]
                    ]
            finally:
                faults.disarm()
            assert breaker.state == BREAKER_OPEN
            assert breaker.trips == 1
            # While open, the pool path is bypassed: the batch degrades to
            # serial (still correct) and is counted.
            got = session.match_many(workloads[2], parallel=True)
            assert [r.as_dict() for r in got] == [
                r.as_dict() for r in expected[2]
            ]
            stats = session.stats()["reliability"]
            assert stats["degraded_batches"] == 1
            assert stats["breaker"]["state"] == BREAKER_OPEN
            # After the cool-down the half-open probe runs pooled (faults
            # disarmed now), succeeds, and closes the breaker.
            clock.advance(30.0)
            got = session.match_many(workloads[3], parallel=True)
            assert [r.as_dict() for r in got] == [
                r.as_dict() for r in expected[3]
            ]
            assert breaker.state == BREAKER_CLOSED
            assert breaker.probes == 1

    def test_serial_time_budget_raises_partial_batch(
        self, chaos_graph, chaos_patterns
    ):
        with MatchSession(chaos_graph) as session:
            with pytest.raises(PartialBatchError) as excinfo:
                session.match_many(
                    chaos_patterns, parallel=False, time_budget=1e-9
                )
            error = excinfo.value
            assert len(error.results) == len(chaos_patterns)
            assert error.completed == sum(
                1 for r in error.results if r is not None
            )
            assert error.completed < len(chaos_patterns)

    def test_pooled_time_budget_raises_partial_batch(
        self, chaos_graph, chaos_patterns
    ):
        # Every worker hangs on every task (rate 1, no cap): without the
        # budget this batch would grind through deadline-kill cycles; with
        # it, match_many reports a partial batch within the budget window.
        with MatchSession(chaos_graph) as session:
            session.worker_pool(max_workers=2, task_timeout=30.0)
            faults.arm(FaultPlan.parse("worker.hang~60", seed=5))
            try:
                with pytest.raises(PartialBatchError) as excinfo:
                    session.match_many(
                        chaos_patterns, parallel=True, time_budget=0.5
                    )
            finally:
                faults.disarm()
            error = excinfo.value
            assert error.completed < len(chaos_patterns)
            assert session.stats()["reliability"]["budget_exceeded"] == 1

    def test_stats_reliability_shape(self, chaos_graph, chaos_patterns):
        with MatchSession(chaos_graph) as session:
            session.match_many(chaos_patterns, parallel=True, max_workers=2)
            reliability = session.stats()["reliability"]
            for key in (
                "faults_armed",
                "injections",
                "breaker",
                "degraded_batches",
                "budget_exceeded",
                "cache_pressure_sheds",
                "retries",
                "deadline_kills",
                "quarantined",
                "respawns",
                "worker_crashes",
                "corrupt_results",
                "lost_tasks",
                "exhausted_tasks",
                "worker_fault_notes",
            ):
                assert key in reliability, key
            assert reliability["faults_armed"] is None
            assert reliability["breaker"]["state"] == BREAKER_CLOSED
