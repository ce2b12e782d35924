"""Deterministic, seeded fault injection for the execution engine.

The worker pool's failure paths (worker crashes, hangs, result-queue
stalls) are impossible to exercise reliably from the outside: they depend
on OS scheduling, memory pressure and timing.  This module gives
every such path a **named fault point** that the engine consults at the
exact place the real failure would strike, so a test (or the ``repro
chaos`` CLI) can arm a seeded schedule and replay the same failure sequence
on demand.

Arming
------
Two equivalent ways:

* environment — ``REPRO_FAULTS="<seed>:<plan>"`` read once at import time;
* API — ``arm(FaultPlan.parse("worker.crash@0.1#2", seed=42))`` /
  ``disarm()`` for programmatic control.

Either way, fork workers inherit the armed state through copy-on-write.

Plan grammar
------------
A plan is a comma-separated list of specs::

    spec  := <point> [@<rate>] [#<max_fires>] [~<arg>]
    point := one of FAULT_POINTS
    rate  := fire probability per evaluation in [0, 1]   (default 1.0)
    max   := cap on total fires of this point             (default unlimited)
    arg   := a float parameter (e.g. hang seconds)        (default per point)

``rate=0`` is legal and useful: the point is *evaluated* (and counted) but
never fires — the probe mode the overhead benchmark uses.

Determinism
-----------
Each fault point draws from its own ``random.Random`` seeded from
``(plan seed, point name)``, so for a fixed call sequence the fire schedule
is a pure function of the seed.  Each forked worker additionally mixes its
pool's fork serial into the stream (:func:`reseed`), so siblings and
replacements diverge from each other deterministically.

Cost discipline — the same contract as ``repro.analysis.sanitize``: every
hook site is guarded by ``if _faults.ENABLED:``, one module-attribute load
and branch when disarmed.  This module imports nothing beyond the stdlib
(``os``, ``random``, ``zlib``) and is imported by the engine's core.
"""

from __future__ import annotations

import os
import random
import zlib
from typing import Dict, Iterable, List, Optional

__all__ = [
    "FAULT_POINTS",
    "FaultPlanError",
    "FaultSpec",
    "FaultPlan",
    "ENABLED",
    "arm",
    "disarm",
    "active_plan",
    "reseed",
    "should_fire",
    "arg",
    "counters",
    "evaluations",
]

#: The named fault points the engine instruments.  All three fire inside
#: pool worker processes, so their fire counters live in the workers.
FAULT_POINTS = frozenset(
    {
        "worker.crash",  # SIGKILL self before executing the task
        "worker.hang",  # sleep ~arg seconds before executing the task
        "queue.stall",  # compute the result, then withhold it
    }
)


class FaultPlanError(ValueError):
    """A ``REPRO_FAULTS`` plan (or :class:`FaultSpec`) is malformed."""


class FaultSpec:
    """One armed fault point: ``point [@rate] [#max_fires] [~arg]``."""

    __slots__ = ("point", "rate", "max_fires", "arg")

    def __init__(
        self,
        point: str,
        rate: float = 1.0,
        max_fires: Optional[int] = None,
        arg: Optional[float] = None,
    ) -> None:
        if point not in FAULT_POINTS:
            raise FaultPlanError(
                f"unknown fault point {point!r}; expected one of "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"{point}: rate must be in [0, 1], got {rate!r}")
        if max_fires is not None and max_fires < 1:
            raise FaultPlanError(
                f"{point}: max_fires must be a positive integer, got {max_fires!r}"
            )
        self.point = point
        self.rate = float(rate)
        self.max_fires = max_fires
        self.arg = arg

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``point[@rate][#max][~arg]`` spec."""
        point = text.strip()
        rate, max_fires, spec_arg = 1.0, None, None
        # Split from the right so the point name is whatever remains.
        for marker in ("~", "#", "@"):
            if marker in point:
                point, _, raw = point.partition(marker)
                try:
                    if marker == "@":
                        rate = float(raw)
                    elif marker == "#":
                        max_fires = int(raw)
                    else:
                        spec_arg = float(raw)
                except ValueError:
                    raise FaultPlanError(
                        f"bad {marker!r} value {raw!r} in fault spec {text!r}"
                    ) from None
        return cls(point.strip(), rate=rate, max_fires=max_fires, arg=spec_arg)

    def to_text(self) -> str:
        parts = [self.point]
        if self.rate != 1.0:
            parts.append(f"@{self.rate:g}")
        if self.max_fires is not None:
            parts.append(f"#{self.max_fires}")
        if self.arg is not None:
            parts.append(f"~{self.arg:g}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<FaultSpec {self.to_text()}>"


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries.

    Immutable; arming (:func:`arm`) builds the mutable per-process state
    (RNG streams + counters) from it, so one plan can be re-armed for many
    independent runs.
    """

    __slots__ = ("seed", "specs")

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.seed = int(seed)
        self.specs: List[FaultSpec] = list(specs)
        seen = set()
        for spec in self.specs:
            if spec.point in seen:
                raise FaultPlanError(f"fault point {spec.point!r} listed twice")
            seen.add(spec.point)

    @classmethod
    def parse(cls, text: str, seed: Optional[int] = None) -> "FaultPlan":
        """Parse ``"<seed>:<spec>,<spec>,..."`` (or just the specs with *seed*).

        When *seed* is given, *text* must be the bare spec list; otherwise
        the leading ``<seed>:`` prefix is required — the grammar of the
        ``REPRO_FAULTS`` environment variable.
        """
        text = text.strip()
        if seed is None:
            head, sep, rest = text.partition(":")
            if not sep:
                raise FaultPlanError(
                    f"fault plan {text!r} is missing its '<seed>:' prefix"
                )
            try:
                seed = int(head)
            except ValueError:
                raise FaultPlanError(
                    f"fault plan seed {head!r} is not an integer"
                ) from None
            text = rest
        if not text.strip():
            raise FaultPlanError("fault plan lists no fault points")
        specs = [FaultSpec.parse(part) for part in text.split(",") if part.strip()]
        return cls(specs, seed=seed)

    def to_env(self) -> str:
        """The ``REPRO_FAULTS`` encoding of this plan."""
        return f"{self.seed}:" + ",".join(spec.to_text() for spec in self.specs)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.to_env()!r}>"


class _FaultState:
    """Per-process mutable state of an armed plan: RNG streams + counters."""

    __slots__ = ("plan", "salt", "rngs", "specs", "fires", "evals")

    def __init__(self, plan: FaultPlan, salt: int = 0) -> None:
        self.plan = plan
        self.salt = salt
        self.specs: Dict[str, FaultSpec] = {spec.point: spec for spec in plan.specs}
        self.rngs: Dict[str, random.Random] = {
            point: random.Random(
                (plan.seed & 0xFFFFFFFF) ^ zlib.crc32(point.encode()) ^ (salt * 0x9E3779B1)
            )
            for point in self.specs
        }
        self.fires: Dict[str, int] = {point: 0 for point in self.specs}
        self.evals = 0


#: Armed state; hook sites branch on this module attribute first.
ENABLED = False
_STATE: Optional[_FaultState] = None


def arm(plan: FaultPlan, *, salt: int = 0) -> None:
    """Arm *plan* in this process (replacing any previously armed plan)."""
    global ENABLED, _STATE
    _STATE = _FaultState(plan, salt=salt)
    ENABLED = True


def disarm() -> None:
    """Disarm fault injection in this process (counters are discarded)."""
    global ENABLED, _STATE
    ENABLED = False
    _STATE = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _STATE.plan if _STATE is not None else None


def reseed(salt: int) -> None:
    """Re-derive the RNG streams with *salt* mixed in (counters reset).

    Pool worker mains call this with their pool's fork serial, so sibling
    and replacement workers draw deterministically different fire
    schedules from one seed.
    """
    if _STATE is not None:
        arm(_STATE.plan, salt=salt)


def should_fire(point: str) -> bool:
    """Evaluate *point* once: ``True`` when the armed plan fires it now.

    Unarmed points (and a disarmed module) never fire.  Every evaluation of
    an armed point is counted (:func:`evaluations`), fired or not.
    """
    state = _STATE
    if state is None:
        return False
    spec = state.specs.get(point)
    if spec is None:
        return False
    state.evals += 1
    if spec.max_fires is not None and state.fires[point] >= spec.max_fires:
        return False
    if spec.rate < 1.0 and state.rngs[point].random() >= spec.rate:
        return False
    state.fires[point] += 1
    return True


def arg(point: str, default: float) -> float:
    """The armed spec's ``~arg`` parameter for *point*, or *default*."""
    state = _STATE
    if state is not None:
        spec = state.specs.get(point)
        if spec is not None and spec.arg is not None:
            return spec.arg
    return default


def counters() -> Dict[str, int]:
    """Fires per point in this process (empty when disarmed)."""
    return dict(_STATE.fires) if _STATE is not None else {}


def evaluations() -> int:
    """Total armed-point evaluations in this process (fired or not)."""
    return _STATE.evals if _STATE is not None else 0


def _arm_from_env() -> None:
    value = os.environ.get("REPRO_FAULTS", "").strip()
    if value:
        arm(FaultPlan.parse(value))


_arm_from_env()
