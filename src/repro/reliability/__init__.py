"""Reliability engineering for the execution engine.

The worker pool (:mod:`repro.engine.parallel`) has one failure rule: a task
it fails to answer is never sent again, and the parent computes it
serially, so a pooled batch always equals serial execution.  This package
makes that claim testable:

* :mod:`repro.reliability.faults` — the deterministic, seeded
  fault-injection harness (named fault points armed via ``REPRO_FAULTS`` or
  the :class:`FaultPlan` API) for the three failures a forked worker can
  really have: a crash, a hang and a withheld result;
* :mod:`repro.reliability.chaos` — the chaos runner replaying seeded fault
  schedules over real workloads and asserting pooled results stay identical
  to serial execution (``repro chaos`` on the command line).

``faults`` is stdlib-only and safe to import from the engine's core;
``chaos`` imports the engine and is therefore loaded lazily.
"""

from __future__ import annotations

from repro.reliability.faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    active_plan,
    arm,
    disarm,
)

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "arm",
    "disarm",
    "active_plan",
    "ChaosReport",
    "DEFAULT_CHAOS_PLAN",
    "run_chaos",
]

_LAZY = {"ChaosReport", "DEFAULT_CHAOS_PLAN", "run_chaos"}


def __getattr__(name: str):
    # chaos imports the engine (which imports this package): load it on
    # first use instead of at import time to keep the core dependency-free.
    if name in _LAZY:
        from repro.reliability import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
