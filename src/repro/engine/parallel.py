"""Persistent worker pool for parallel query execution.

The first cut of parallel ``match_many`` forked a throwaway
``multiprocessing.Pool`` per call: every batch paid the full fork + teardown
cost, and any ball/seed state a worker warmed up died with it — on
moderately sized workloads the "parallel" path lost to the serial loop it
was meant to beat.  This module replaces it with a :class:`WorkerPool` that
a :class:`~repro.engine.session.MatchSession` owns for its lifetime:

* workers are **forked once** and then pull whole ``(pattern, plan)``
  work units from a task queue until the pool is shut down, so each
  worker's session state (ball memos, edge-type seeds, result cache) stays
  warm across batches;
* a worker answers with the fixpoint's ``{pattern node: bitset}`` and
  decodes nothing: the parent wraps it with
  :meth:`~repro.matching.match_result.MatchResult.from_bits` against its
  own snapshot, which the version handshake below guarantees is the one the
  worker computed on;
* the pool needs the ``fork`` start method: on platforms without it the
  session never builds one and :meth:`MatchSession.match_many` runs its
  serial loop;
* every task carries the **snapshot version** it was planned against, and
  workers answer ``stale`` for versions they are not pinned to — the parent
  transparently recomputes those units serially and re-pins the pool
  (one respawn, counted in :meth:`WorkerPool.stats`) before its next batch.

Failure semantics
-----------------
One rule covers every failure: a task the pool fails to answer is never
sent again — its slot stays empty and the parent computes it serially at
the end of the batch, so a pooled batch always returns exactly what serial
execution returns.  Workers acknowledge every task before executing it,
which lets the parent attribute work to processes and run **per-task
deadlines**.  A task is given up when

* its worker *dies* (crash, OOM-kill): liveness checks notice, and a
  replacement worker is respawned mid-batch;
* its worker *hangs* (stuck syscall, SIGSTOP, runaway loop) past the task's
  deadline: the parent SIGKILLs and replaces it (quarantine), so one
  unresponsive process never stalls the rest of the batch;
* nobody acknowledges it before its deadline and no worker has answered
  anything for a whole deadline: the queue itself is stuck, so the parent
  kills every worker and finishes the batch serially;
* its worker answers ``error``.

The failures a forked process can really have are named fault points of
:mod:`repro.reliability.faults` (``worker.crash``, ``worker.hang``,
``queue.stall``), so the chaos suite can fire each one deterministically
and assert results stay identical to serial execution.

The snapshot is strictly read-only for the workers: anything a worker
materialises lives in its own copy-on-write memory and is never written
back.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import time
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis import sanitize as _sanitize
from repro.matching.match_result import MatchResult
from repro.reliability import faults as _faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.planner import QueryPlan
    from repro.engine.session import MatchSession
    from repro.graph.pattern import Pattern

__all__ = ["fork_available", "WorkerPool", "DEFAULT_TASK_TIMEOUT"]

#: Seconds a dispatched task may run (queue wait, then execution after its
#: ack) before the parent gives it up and computes it serially.
DEFAULT_TASK_TIMEOUT = 60.0

#: Ceiling on one blocking ``get`` on the result queue, so deadline sweeps
#: run even while nothing arrives.
_MAX_POLL = 1.0

#: Session inherited by fork workers, published immediately before forking.
_WORKER_SESSION: Optional["MatchSession"] = None


def fork_available() -> bool:
    """``True`` when this platform can fork worker processes."""
    return hasattr(os, "fork")


# ----------------------------------------------------------------------
# worker mains
# ----------------------------------------------------------------------


def _serve(session: "MatchSession", tasks, results, worker_id: int) -> None:
    """The worker loop: answer ``(pattern, plan)`` units with ``session._execute_bits``.

    *session* is the inherited session; its pinned snapshot's version is
    what the handshake compares against.  ``None`` on the task queue stops
    the loop.

    Every task is acknowledged (``ack``) before execution so the parent can
    attribute in-flight work to this process; the worker-side fault points
    (crash/hang/stall) fire between the ack and the answer, exactly where
    the real failures they model would strike.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        if _sanitize.ENABLED:
            _sanitize.pool_task(task)
        task_id, expected_version, (pattern, plan) = task
        try:
            results.put((worker_id, task_id, "ack", None))
        except Exception:  # pragma: no cover - result queue gone
            break
        if _faults.ENABLED:
            if _faults.should_fire("worker.crash"):
                os.kill(os.getpid(), signal.SIGKILL)
            if _faults.should_fire("worker.hang"):
                time.sleep(_faults.arg("worker.hang", 60.0))
        try:
            if session._compiled.version != expected_version:
                results.put((worker_id, task_id, "stale", None))
                continue
            answer = session._execute_bits(pattern, plan)
            if _faults.ENABLED and _faults.should_fire("queue.stall"):
                # Simulated result-queue stall: the answer is computed but
                # never delivered.  The parent's deadline fires.
                continue
            results.put((worker_id, task_id, "ok", answer))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            try:
                results.put((worker_id, task_id, "error", repr(exc)))
            except Exception:  # pragma: no cover - result queue gone
                break


def _fork_worker_main(worker_id: int, salt: int, tasks, results) -> None:
    """Entry point of fork workers; the session arrives via copy-on-write."""
    if _faults.ENABLED:
        _faults.reseed(salt)
    _serve(_WORKER_SESSION, tasks, results, worker_id)


# ----------------------------------------------------------------------
# parent-side pool
# ----------------------------------------------------------------------


def _stop_process(process, *, join_timeout: float) -> None:
    """Stop one worker with escalation: join → terminate → kill.

    SIGTERM is not delivered to a SIGSTOP'd process until it is continued,
    so ``terminate()`` alone can leave a stopped worker alive forever; the
    final ``kill()`` (SIGKILL) reaps even those.
    """
    process.join(timeout=join_timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=join_timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout=join_timeout)


def _reap(processes: List, task_queue) -> None:
    """GC finalizer: stop workers whose pool was dropped without shutdown().

    Captures the process/queue containers, never the pool (a finalizer
    holding its own referent would keep it alive forever).
    """
    for _ in processes:
        try:
            task_queue.put(None)
        except Exception:
            break
    for process in processes:
        _stop_process(process, join_timeout=1.0)


class _PendingTask:
    """Parent-side record of one dispatched task."""

    __slots__ = ("slot", "payload", "deadline", "owner", "version")

    def __init__(self, slot: int, payload: Tuple["Pattern", "QueryPlan"]) -> None:
        self.slot = slot
        self.payload = payload
        self.deadline = 0.0
        self.owner: Optional[int] = None  # worker id after the ack
        self.version: Optional[int] = None  # snapshot version it was sent at


class WorkerPool:
    """A persistent process pool pinned to one session's compiled snapshot.

    Created lazily by :meth:`MatchSession.match_many` (or explicitly via
    :meth:`MatchSession.worker_pool`); workers survive across batches, so
    the fork cost is paid once per snapshot version instead of once per
    call.  All scheduling is version-checked and deadline-guarded: see
    the module docstring for the staleness, crash and hang contracts.
    """

    def __init__(
        self,
        session: "MatchSession",
        *,
        max_workers: Optional[int] = None,
        task_timeout: float = DEFAULT_TASK_TIMEOUT,
    ) -> None:
        if task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self._session = session
        self._max_workers = max_workers
        self._task_timeout = task_timeout
        self._processes: List = []
        self._task_queue = None
        self._result_queue = None
        self._pinned_version: Optional[int] = None
        self._next_task_id = 0
        self._last_heard = 0.0  # when the collect loop last received anything
        self._broken = False
        self._finalizer = None
        # observability
        self._workers_spawned = 0
        self._repin_count = 0
        self._queue_depth_hwm = 0
        self._per_worker_executed: Dict[int, int] = {}
        self._worker_crashes = 0
        self._serial_fallbacks = 0
        self._stale_tasks = 0
        # reliability counters
        self._deadline_kills = 0
        self._quarantined = 0
        self._respawns = 0
        self._worker_errors = 0
        self._lost_tasks = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of currently live worker processes."""
        return sum(1 for p in self._processes if p.is_alive())

    @property
    def started(self) -> bool:
        """``True`` once workers have been spawned and not yet shut down."""
        return bool(self._processes)

    @property
    def pinned_version(self) -> Optional[int]:
        """Snapshot version the current workers hold (``None`` when down)."""
        return self._pinned_version if self._processes else None

    def target_workers(self) -> int:
        """Worker count the next spawn will aim for."""
        limit = self._max_workers
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, limit)

    def ensure(self) -> bool:
        """Make the pool live and pinned to the session's current snapshot.

        Returns ``True`` when workers are available afterwards.  A version
        drift or a broken pool triggers one stop + respawn (the *re-pin*).
        """
        version = self._session._compiled.version
        if self._processes and not self._broken and self._pinned_version == version:
            if all(p.is_alive() for p in self._processes):
                return True
            self._worker_crashes += sum(
                1 for p in self._processes if not p.is_alive()
            )
            self._broken = True
        if self._processes:
            was_pinned = self._pinned_version
            self._stop_workers()
            if was_pinned is not None:
                self._repin_count += 1
        try:
            self._start_workers(version)
        except Exception:
            self._stop_workers()
            return False
        return True

    def _make_worker(self, context, worker_id: int):
        """Fork a worker for *worker_id*, fault-salted with the pool's fork serial."""
        global _WORKER_SESSION
        _WORKER_SESSION = self._session
        try:
            process = context.Process(
                target=_fork_worker_main,
                args=(worker_id, self._workers_spawned + 1, self._task_queue, self._result_queue),
                daemon=True,
            )
            process.start()
        finally:
            _WORKER_SESSION = None
        self._workers_spawned += 1
        return process

    def _start_workers(self, version: int) -> None:
        context = multiprocessing.get_context("fork")
        self._task_queue = context.SimpleQueue()
        self._result_queue = context.Queue()
        count = self.target_workers()
        processes = []
        for worker_id in range(count):
            processes.append(self._make_worker(context, worker_id))
        self._processes = processes
        self._pinned_version = version
        self._broken = False
        self._finalizer = weakref.finalize(
            self, _reap, self._processes, self._task_queue
        )

    def _respawn_worker(self, worker_id: int) -> bool:
        """Replace the (dead or quarantined) worker at *worker_id* mid-batch."""
        if not self._processes or self._task_queue is None:
            return False
        try:
            context = multiprocessing.get_context("fork")
            process = self._make_worker(context, worker_id)
        except Exception:  # pragma: no cover - fork failure
            return False
        self._processes[worker_id] = process
        self._respawns += 1
        return True

    def _quarantine_worker(self, worker_id: int) -> None:
        """SIGKILL the unresponsive worker at *worker_id* and replace it."""
        if worker_id < 0 or worker_id >= len(self._processes):
            return
        process = self._processes[worker_id]
        if process.is_alive():
            process.kill()
        process.join(timeout=1.0)
        self._quarantined += 1
        self._respawn_worker(worker_id)

    def _stop_workers(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._task_queue is not None:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except Exception:  # pragma: no cover - queue already broken
                    break
        for process in self._processes:
            _stop_process(process, join_timeout=1.0)
        self._processes = []
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                try:
                    q.close()
                except Exception:  # pragma: no cover - platform specific
                    pass
        self._task_queue = None
        self._result_queue = None
        self._pinned_version = None
        self._broken = False

    def shutdown(self) -> None:
        """Stop every worker and release all pool resources (idempotent)."""
        self._stop_workers()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, task: _PendingTask) -> int:
        """Put *task* on the wire; returns the task id it travels under."""
        task_id = self._next_task_id
        self._next_task_id += 1
        # The expected version is the *session's* current one, not the
        # pool's pin: a snapshot patched after the workers were spawned must
        # make them answer ``stale``, never silently serve the old graph.
        expected_version = self._session._compiled.version
        self._task_queue.put((task_id, expected_version, task.payload))
        task.version = expected_version
        task.deadline = time.monotonic() + self._task_timeout
        return task_id

    @staticmethod
    def _give_up_owned(worker_id: int, pending: Dict[int, _PendingTask]) -> None:
        """Drop every task *worker_id* acknowledged; the parent runs them."""
        for task_id in [t for t, task in pending.items() if task.owner == worker_id]:
            del pending[task_id]

    def _check_liveness(self, pending: Dict[int, _PendingTask]) -> bool:
        """Detect dead workers, give up their tasks, respawn them.

        Returns ``False`` when no worker could be kept alive (pool broken).
        """
        any_alive = False
        for worker_id, process in enumerate(self._processes):
            if process.is_alive():
                any_alive = True
                continue
            process.join(timeout=0)  # reap the zombie
            self._worker_crashes += 1
            self._give_up_owned(worker_id, pending)
            if self._respawn_worker(worker_id):
                any_alive = True
        if not any_alive:
            self._broken = True
        return any_alive

    def _sweep_deadlines(self, pending: Dict[int, _PendingTask], now: float) -> bool:
        """Give up expired tasks, quarantining the hung workers that own them.

        An expired task nobody acknowledged is waiting behind busy (or just
        replaced) workers while the pool still answers; it gets a fresh
        deadline.  Returns ``False`` once the pool has been silent for a
        whole deadline with such a task queued: the queue (or every worker)
        is stuck, and the caller breaks the pool.
        """
        for task_id, task in list(pending.items()):
            if task_id not in pending or now <= task.deadline:
                continue
            if task.owner is not None:
                self._deadline_kills += 1
                self._give_up_owned(task.owner, pending)
                self._quarantine_worker(task.owner)
                self._last_heard = now  # a fresh worker can take the queue
            elif now - self._last_heard >= self._task_timeout:
                self._lost_tasks += 1
                return False
            else:
                task.deadline = self._last_heard + self._task_timeout
        return True

    def _next_wakeup(self, pending: Dict[int, _PendingTask], now: float) -> float:
        """Blocking-get timeout until the nearest task deadline."""
        horizon = min(
            [now + _MAX_POLL] + [task.deadline for task in pending.values()]
        )
        return max(0.005, horizon - now)

    def _collect(
        self, pending: Dict[int, _PendingTask], sink: List[Optional[MatchResult]]
    ) -> bool:
        """Drain results for *pending* into *sink* (indexed by task slot).

        An ``ok`` answer is a worker's ``{u: bitset}``, wrapped undecoded
        into a lazy :class:`MatchResult` over the session's snapshot.  Acks
        arm per-task deadlines; expired deadlines quarantine hung
        owners, dead workers are respawned mid-batch, and every task given
        up (or answered ``stale``/``error``) leaves its slot ``None`` for
        the caller's serial pass.  Returns ``False`` when the pool broke.
        """
        compiled = self._session._compiled
        self._last_heard = time.monotonic()
        while pending:
            now = time.monotonic()
            try:
                item = self._result_queue.get(timeout=self._next_wakeup(pending, now))
            except queue_module.Empty:
                item = None
            except Exception:  # pragma: no cover - queue torn down under us
                self._broken = True
                return False
            if item is None:
                # Nothing arrived inside the window: liveness + deadline sweep.
                if not self._check_liveness(pending):
                    return False
                if not self._sweep_deadlines(pending, time.monotonic()):
                    self._broken = True
                    for process in self._processes:
                        if process.is_alive():
                            process.kill()
                            process.join(timeout=1.0)
                            self._quarantined += 1
                    return False
                continue
            self._last_heard = time.monotonic()
            if _sanitize.ENABLED:
                # A malformed tuple or payload is an engine invariant
                # violation: raise it out of the collect loop, never
                # swallow it.
                _sanitize.pool_result(item, pending, compiled.version)
            worker_id, task_id, status, payload = item
            task = pending.get(task_id)
            if task is None:
                continue  # a late answer for a task already given up
            if status == "ack":
                task.owner = worker_id
                task.deadline = self._last_heard + self._task_timeout
                continue
            del pending[task_id]
            if status == "ok":
                sink[task.slot] = MatchResult.from_bits(
                    payload, compiled, task.payload[0].node_list()
                )
                self._per_worker_executed[worker_id] = (
                    self._per_worker_executed.get(worker_id, 0) + 1
                )
            elif status == "stale":
                self._stale_tasks += 1
            else:
                self._worker_errors += 1
        # Every task is settled; reap workers that exited meanwhile.
        return self._check_liveness(pending)

    def run_units(
        self, units: Sequence[Tuple["Pattern", "QueryPlan"]]
    ) -> List[MatchResult]:
        """Execute the planned *units*, in order, with serial safety net.

        Every unit is answered: pooled when possible, serially in the
        parent for anything the pool did not deliver (pool down, stale
        version, worker crash/hang/error, stuck queue).
        """
        results: List[Optional[MatchResult]] = [None] * len(units)
        if units and self.ensure():
            pending: Dict[int, _PendingTask] = {}
            try:
                for slot, unit in enumerate(units):
                    task = _PendingTask(slot, unit)
                    pending[self._dispatch(task)] = task
            except Exception:  # pragma: no cover - submission failure
                self._broken = True
            self._queue_depth_hwm = max(self._queue_depth_hwm, len(pending))
            self._collect(pending, results)
        session = self._session
        for slot, (pattern, plan) in enumerate(units):
            if results[slot] is None:
                results[slot] = session._execute(pattern, plan)
                self._serial_fallbacks += 1
        return results

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Pool counters (shape documented in ``MatchSession.stats``)."""
        return {
            "workers": self.workers,
            "pinned_version": self.pinned_version,
            "workers_spawned": self._workers_spawned,
            "repin_count": self._repin_count,
            "queue_depth_hwm": self._queue_depth_hwm,
            "per_worker_executed": dict(self._per_worker_executed),
            "worker_crashes": self._worker_crashes,
            "serial_fallbacks": self._serial_fallbacks,
            "stale_tasks": self._stale_tasks,
        }

    def reliability_stats(self) -> Dict[str, object]:
        """The failure-handling counters (fed into ``session.stats()``)."""
        return {
            "deadline_kills": self._deadline_kills,
            "quarantined": self._quarantined,
            "respawns": self._respawns,
            "worker_crashes": self._worker_crashes,
            "worker_errors": self._worker_errors,
            "lost_tasks": self._lost_tasks,
        }

    def __repr__(self) -> str:
        state = "up" if self.started else "down"
        return (
            f"<WorkerPool {state} workers={self.workers} "
            f"pinned=v{self._pinned_version}>"
        )
