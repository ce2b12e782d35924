"""Unit tests for the fault-injection harness (repro.reliability.faults).

Covers the fault-plan grammar, the set of fault points and the seeded
determinism of armed schedules.
"""

from __future__ import annotations

import pytest

from repro.reliability import faults
from repro.reliability.faults import FAULT_POINTS, FaultPlan, FaultPlanError, FaultSpec


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with fault injection disarmed."""
    faults.disarm()
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# plan grammar
# ----------------------------------------------------------------------


class TestPlanGrammar:
    def test_fault_points_are_the_worker_failures(self):
        assert FAULT_POINTS == {"worker.crash", "worker.hang", "queue.stall"}
        for gone in ("result.corrupt", "task.corrupt", "snapshot.skew", "cache.pressure"):
            with pytest.raises(FaultPlanError):
                FaultSpec.parse(gone)

    def test_parse_bare_point(self):
        spec = FaultSpec.parse("worker.crash")
        assert spec.point == "worker.crash"
        assert spec.rate == 1.0
        assert spec.max_fires is None
        assert spec.arg is None

    def test_parse_full_spec(self):
        spec = FaultSpec.parse("worker.hang@0.25#3~1.5")
        assert spec.point == "worker.hang"
        assert spec.rate == 0.25
        assert spec.max_fires == 3
        assert spec.arg == 1.5

    def test_round_trip(self):
        for text in [
            "worker.crash",
            "worker.hang@0.25#3~1.5",
            "queue.stall#1",
            "queue.stall@0.5",
            "worker.crash@0",
        ]:
            assert FaultSpec.parse(text).to_text() == text

    def test_plan_env_round_trip(self):
        plan = FaultPlan.parse("42:worker.crash@0.1#2,queue.stall")
        assert plan.seed == 42
        assert len(plan.specs) == 2
        again = FaultPlan.parse(plan.to_env())
        assert again.to_env() == plan.to_env()

    def test_plan_with_explicit_seed_takes_bare_specs(self):
        plan = FaultPlan.parse("worker.crash,queue.stall", seed=7)
        assert plan.seed == 7
        assert {spec.point for spec in plan.specs} == {
            "worker.crash",
            "queue.stall",
        }

    @pytest.mark.parametrize(
        "bad",
        [
            "worker.crash",  # missing seed prefix
            "x:worker.crash",  # non-integer seed
            "1:",  # empty plan
            "1:unknown.point",
            "1:worker.crash@2.0",  # rate out of range
            "1:worker.crash#0",  # non-positive cap
            "1:worker.crash@oops",
            "1:worker.crash,worker.crash",  # duplicate point
        ],
    )
    def test_malformed_plans_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)


# ----------------------------------------------------------------------
# armed behaviour
# ----------------------------------------------------------------------


class TestArmedFaults:
    def test_disarmed_never_fires(self):
        assert faults.ENABLED is False
        assert faults.should_fire("worker.crash") is False
        assert faults.counters() == {}
        assert faults.evaluations() == 0

    def test_unlisted_point_never_fires_and_is_not_counted(self):
        faults.arm(FaultPlan.parse("1:worker.crash"))
        assert faults.should_fire("queue.stall") is False
        assert faults.evaluations() == 0

    def test_rate_one_always_fires_until_cap(self):
        faults.arm(FaultPlan.parse("1:worker.crash#2"))
        assert faults.should_fire("worker.crash") is True
        assert faults.should_fire("worker.crash") is True
        assert faults.should_fire("worker.crash") is False
        assert faults.counters() == {"worker.crash": 2}
        assert faults.evaluations() == 3

    def test_rate_zero_probe_counts_evaluations_only(self):
        faults.arm(FaultPlan.parse("1:queue.stall@0"))
        for _ in range(50):
            assert faults.should_fire("queue.stall") is False
        assert faults.evaluations() == 50
        assert faults.counters() == {"queue.stall": 0}

    def test_seeded_schedule_is_deterministic(self):
        def schedule(seed, salt=0):
            faults.arm(FaultPlan.parse("worker.crash@0.3", seed=seed), salt=salt)
            fired = [faults.should_fire("worker.crash") for _ in range(64)]
            faults.disarm()
            return fired

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)
        # The salt (a pool's fork serial) deterministically diverges
        # sibling streams.
        assert schedule(11, salt=1) == schedule(11, salt=1)
        assert schedule(11, salt=1) != schedule(11, salt=2)

    def test_arg_lookup_with_default(self):
        faults.arm(FaultPlan.parse("1:worker.hang~0.4"))
        assert faults.arg("worker.hang", 60.0) == 0.4
        assert faults.arg("queue.stall", 9.0) == 9.0

    def test_env_round_trip_arms_identically(self, monkeypatch):
        plan = FaultPlan.parse("5:worker.crash@0.5#1")
        monkeypatch.setenv("REPRO_FAULTS", plan.to_env())
        faults._arm_from_env()
        armed = faults.active_plan()
        assert armed is not None and armed.to_env() == plan.to_env()
