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
* the pool needs the ``fork`` start method: on platforms without it the
  session never builds one and :meth:`MatchSession.match_many` runs its
  serial loop;
* every task carries the **snapshot version** it was planned against, and
  workers answer ``stale`` for versions they are not pinned to — the parent
  transparently recomputes those units serially and re-pins the pool
  (one respawn, counted in :meth:`WorkerPool.stats`) before its next batch.

Failure semantics (the resilient-execution layer)
-------------------------------------------------
Workers acknowledge every task before executing it, which lets the parent
attribute work to processes and run **per-task deadlines**:

* a worker that *dies* (crash, OOM-kill) is detected by liveness checks;
  its in-flight task is re-dispatched and a replacement worker is respawned
  mid-batch;
* a worker that *hangs* (stuck syscall, SIGSTOP, runaway loop) blows its
  task's deadline; the parent **kills and replaces** it (quarantine) so one
  unresponsive process never stalls the rest of the batch;
* lost or failed tasks are retried with bounded **exponential backoff +
  jitter** (:class:`~repro.reliability.resilience.RetryPolicy`); exhausted
  tasks fall back to serial execution in the parent, so no caller ever
  sees a crash;
* a :class:`~repro.reliability.resilience.BatchBudget` caps one batch's
  wall clock: when it expires the pool stops waiting and reports partial
  results instead of hanging (the session raises
  :class:`~repro.exceptions.PartialBatchError`).

Every failure path is instrumented with the named fault points of
:mod:`repro.reliability.faults` (``worker.crash``, ``worker.hang``,
``queue.stall``, ``result.corrupt``, ``task.corrupt``, ``snapshot.skew``),
so the chaos suite can fire each one deterministically and assert results
stay byte-identical to serial execution.

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
from repro.reliability.resilience import BatchBudget, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.planner import QueryPlan
    from repro.engine.session import MatchSession
    from repro.graph.pattern import Pattern

__all__ = ["fork_available", "WorkerPool", "DEFAULT_TASK_TIMEOUT"]

#: Seconds a dispatched task may run (queue wait, then execution after its
#: ack) before the parent declares its worker hung and re-dispatches.
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
    """The worker loop: answer ``(pattern, plan)`` units with ``session._execute``.

    *session* is the inherited session; its pinned snapshot's version is
    what the handshake compares against.  ``None`` on the task queue stops
    the loop.

    Every task is acknowledged (``ack``) before execution so the parent can
    attribute in-flight work to this process; worker-side fault points
    (crash/hang/stall/corrupt) fire between the ack and the answer, exactly
    where the real failures they model would strike.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        if _sanitize.ENABLED:
            _sanitize.pool_task(task)
        try:
            task_id, expected_version, (pattern, plan) = task
        except (TypeError, ValueError):
            # A corrupted task cannot be answered by id; report it and move
            # on — the parent's per-task deadline re-dispatches the lost
            # unit.
            try:
                results.put((worker_id, -1, "malformed", None))
                continue
            except Exception:  # pragma: no cover - result queue gone
                break
        try:
            results.put((worker_id, task_id, "ack", None))
        except Exception:  # pragma: no cover - result queue gone
            break
        if _faults.ENABLED:
            if _faults.should_fire("worker.crash"):
                os.kill(os.getpid(), signal.SIGKILL)
            if _faults.should_fire("worker.hang"):
                try:
                    results.put((worker_id, task_id, "fault", "worker.hang"))
                except Exception:  # pragma: no cover - result queue gone
                    pass
                time.sleep(_faults.arg("worker.hang", 60.0))
        try:
            if session._compiled.version != expected_version:
                results.put((worker_id, task_id, "stale", None))
                continue
            answer = session._execute(pattern, plan)
            if _faults.ENABLED:
                if _faults.should_fire("queue.stall"):
                    # Simulated result-queue stall: the answer is computed
                    # but never delivered.  The parent's deadline fires.
                    results.put((worker_id, task_id, "fault", "queue.stall"))
                    continue
                if _faults.should_fire("result.corrupt"):
                    results.put((worker_id, task_id, "fault", "result.corrupt"))
                    results.put((worker_id, task_id, "ok", _faults.CORRUPT))
                    continue
            results.put((worker_id, task_id, "ok", answer))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            try:
                results.put((worker_id, task_id, "error", repr(exc)))
            except Exception:  # pragma: no cover - result queue gone
                break


def _fork_worker_main(worker_id: int, tasks, results) -> None:
    """Entry point of fork workers; the session arrives via copy-on-write."""
    if _faults.ENABLED:
        _faults.reseed(worker_id + 1)
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
    """Parent-side record of one dispatched (or retry-dormant) task."""

    __slots__ = ("slot", "payload", "attempts", "deadline", "owner", "not_before")

    def __init__(self, slot: int, payload: Tuple["Pattern", "QueryPlan"]) -> None:
        self.slot = slot
        self.payload = payload
        self.attempts = 0
        self.deadline = 0.0
        self.owner: Optional[int] = None  # worker id after the ack
        self.not_before: Optional[float] = None  # backoff gate while dormant


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
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self._session = session
        self._max_workers = max_workers
        self._task_timeout = task_timeout
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._processes: List = []
        self._task_queue = None
        self._result_queue = None
        self._pinned_version: Optional[int] = None
        self._next_task_id = 0
        self._broken = False
        self._finalizer = None
        #: ``False`` when the last ``run_units`` batch needed any failure
        #: handling (broken pool, serial fallback, exhausted retries) — the
        #: signal the session's circuit breaker consumes.
        self.last_batch_clean = True
        # observability
        self._workers_spawned = 0
        self._repin_count = 0
        self._queue_depth_hwm = 0
        self._per_worker_executed: Dict[int, int] = {}
        self._worker_crashes = 0
        self._serial_fallbacks = 0
        self._stale_tasks = 0
        # reliability counters
        self._retries = 0
        self._deadline_kills = 0
        self._quarantined = 0
        self._respawns = 0
        self._corrupt_results = 0
        self._malformed_tasks = 0
        self._worker_errors = 0
        self._lost_tasks = 0
        self._exhausted_tasks = 0
        self._budget_stops = 0
        self._fault_notes: Dict[str, int] = {}

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
        """Fork one worker process for *worker_id* on the live queues."""
        global _WORKER_SESSION
        _WORKER_SESSION = self._session
        try:
            process = context.Process(
                target=_fork_worker_main,
                args=(worker_id, self._task_queue, self._result_queue),
                daemon=True,
            )
            process.start()
        finally:
            _WORKER_SESSION = None
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
        self._workers_spawned += len(processes)
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
        self._workers_spawned += 1
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
        wire = (task_id, expected_version, task.payload)
        if _faults.ENABLED:
            if _faults.should_fire("snapshot.skew"):
                # Simulated mid-batch snapshot skew: the task claims a
                # version the workers cannot hold, so it comes back stale.
                wire = (task_id, expected_version + 1, task.payload)
            if _faults.should_fire("task.corrupt"):
                # Simulated wire corruption: the worker receives garbage and
                # the real unit is lost until the deadline re-dispatches it.
                self._task_queue.put((_faults.CORRUPT,))
                task.attempts += 1
                task.owner = None
                task.not_before = None
                task.deadline = time.monotonic() + self._task_timeout
                return task_id
        self._task_queue.put(wire)
        task.attempts += 1
        task.owner = None
        task.not_before = None
        task.deadline = time.monotonic() + self._task_timeout
        return task_id

    def _retry_or_fail(
        self, task_id: int, task: _PendingTask, pending: Dict[int, _PendingTask], now: float
    ) -> None:
        """Schedule a backoff retry for *task*, or give it up to the fallback."""
        pending.pop(task_id, None)
        if task.attempts <= self._retry_policy.max_retries:
            self._retries += 1
            task.owner = None
            task.not_before = now + self._retry_policy.backoff(task.attempts - 1)
            # Dormant tasks wait under their old id; the sweep re-dispatches
            # them (under a fresh id) once the backoff gate opens.
            pending[task_id] = task
        else:
            self._exhausted_tasks += 1

    def _check_liveness(self, pending: Dict[int, _PendingTask], now: float) -> bool:
        """Detect dead workers, respawn them, re-deadline their orphans.

        Returns ``False`` when no worker could be kept alive (pool broken).
        """
        any_alive = False
        for worker_id, process in enumerate(self._processes):
            if process.is_alive():
                any_alive = True
                continue
            process.join(timeout=0)  # reap the zombie
            self._worker_crashes += 1
            # The crashed worker's acked tasks will never answer; pull their
            # deadlines in so the sweep re-dispatches them immediately.
            for task in pending.values():
                if task.owner == worker_id and task.not_before is None:
                    task.deadline = min(task.deadline, now)
                    task.owner = None
            if self._respawn_worker(worker_id):
                any_alive = True
        if not any_alive:
            self._broken = True
        return any_alive

    def _sweep_deadlines(self, pending: Dict[int, _PendingTask], now: float) -> bool:
        """Re-dispatch due retries; kill owners of expired tasks.

        Returns ``False`` when the pool stopped making progress entirely
        (every retry path exhausted without an ack — e.g. all workers
        SIGSTOP'd): the caller breaks the pool and falls back serially.
        """
        for task_id, task in list(pending.items()):
            if task.not_before is not None:
                if now >= task.not_before:
                    pending.pop(task_id, None)
                    pending[self._dispatch(task)] = task
                continue
            if now <= task.deadline:
                continue
            # Expired.  Attribute it: a live owner is hung — quarantine it.
            if task.owner is not None:
                self._deadline_kills += 1
                self._quarantine_worker(task.owner)
            else:
                self._lost_tasks += 1
                if task.attempts > self._retry_policy.max_retries:
                    # Never acked and out of retries: the queue (or every
                    # worker) is stalled; stop feeding it.
                    return False
            self._retry_or_fail(task_id, task, pending, now)
        return True

    def _next_wakeup(self, pending: Dict[int, _PendingTask], now: float) -> float:
        """Blocking-get timeout until the nearest deadline/backoff event."""
        horizon = now + _MAX_POLL
        for task in pending.values():
            event = task.not_before if task.not_before is not None else task.deadline
            if event < horizon:
                horizon = event
        return max(0.005, horizon - now)

    def _collect(
        self,
        pending: Dict[int, _PendingTask],
        sink: List[Optional[object]],
        budget: Optional[BatchBudget] = None,
    ) -> bool:
        """Drain results for *pending* into *sink* (indexed by task slot).

        Runs the full resilience loop: acks arm per-task deadlines, expired
        deadlines kill hung owners and re-dispatch with backoff, dead
        workers are respawned mid-batch, corrupted payloads are rejected
        and retried.  Returns ``False`` when the pool broke or the *budget*
        expired; whatever completed is already in *sink* and the rest stays
        ``None`` for the caller (serial fallback, or a partial-batch
        report).  ``stale`` answers leave their slot ``None`` without
        breaking the pool.
        """
        while pending:
            if budget is not None and budget.expired():
                self._budget_stops += 1
                return False
            now = time.monotonic()
            timeout = self._next_wakeup(pending, now)
            if budget is not None:
                remaining = budget.remaining()
                if remaining is not None:
                    timeout = min(timeout, max(0.005, remaining))
            item = None
            try:
                item = self._result_queue.get(timeout=timeout)
            except queue_module.Empty:
                pass
            except _sanitize.SanitizeError:
                raise
            except Exception:  # pragma: no cover - queue torn down under us
                self._broken = True
                return False
            now = time.monotonic()
            if item is not None:
                if _sanitize.ENABLED:
                    # A malformed tuple is an engine invariant violation:
                    # raise it out of the retry loop, never swallow it.
                    _sanitize.pool_result(item)
                try:
                    worker_id, task_id, status, payload = item
                except (TypeError, ValueError):
                    self._corrupt_results += 1
                    continue
                if status == "ack":
                    task = pending.get(task_id)
                    if task is not None and task.not_before is None:
                        task.owner = worker_id
                        task.deadline = now + self._task_timeout
                    continue
                if status == "fault":
                    self._note_fault(payload)
                    continue
                if status == "malformed":
                    self._malformed_tasks += 1
                    continue
                task = pending.get(task_id)
                if task is None or task.not_before is not None:
                    # Unknown id, or a dormant retry answered late by its
                    # original worker: accept the late answer if it is one.
                    # Parent-side shape check: corrupted results must not
                    # reach callers.
                    if (
                        task is not None
                        and status == "ok"
                        and isinstance(payload, MatchResult)
                    ):
                        pending.pop(task_id, None)
                        sink[task.slot] = payload
                    continue
                if status == "ok":
                    if isinstance(payload, MatchResult):
                        pending.pop(task_id, None)
                        sink[task.slot] = payload
                        self._per_worker_executed[worker_id] = (
                            self._per_worker_executed.get(worker_id, 0) + 1
                        )
                    else:
                        self._corrupt_results += 1
                        self._retry_or_fail(task_id, task, pending, now)
                elif status == "stale":
                    self._stale_tasks += 1
                    pending.pop(task_id, None)
                elif status == "error":
                    self._worker_errors += 1
                    self._retry_or_fail(task_id, task, pending, now)
                continue
            # Nothing arrived inside the window: liveness + deadline sweep.
            if not self._check_liveness(pending, now):
                return False
            if not self._sweep_deadlines(pending, now):
                self._broken = True
                for worker_id in range(len(self._processes)):
                    process = self._processes[worker_id]
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=1.0)
                        self._quarantined += 1
                return False
        # Every task is answered; read the fault notes still queued and reap
        # exited workers, so the batch's counters see every failure.
        while True:
            try:
                item = self._result_queue.get_nowait()
            except queue_module.Empty:
                break
            except Exception:  # pragma: no cover - queue torn down under us
                self._broken = True
                return False
            if _sanitize.ENABLED:
                _sanitize.pool_result(item)
            if isinstance(item, tuple) and len(item) == 4 and item[2] == "fault":
                self._note_fault(item[3])
        return self._check_liveness(pending, time.monotonic())

    def _note_fault(self, payload) -> None:
        if isinstance(payload, str):
            self._fault_notes[payload] = self._fault_notes.get(payload, 0) + 1

    def run_units(
        self,
        units: Sequence[Tuple["Pattern", "QueryPlan"]],
        *,
        budget: Optional[BatchBudget] = None,
    ) -> List[Optional[MatchResult]]:
        """Execute the planned *units*, in order, with serial safety net.

        Every unit is answered: pooled when possible, serially in the
        parent for anything the pool could not deliver (pool down, stale
        version, worker crash/hang, exhausted retries).  With a *budget*,
        slots still unanswered at expiry stay ``None`` — the session turns
        those into a :class:`~repro.exceptions.PartialBatchError` instead
        of burning past the deadline.
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
            self._collect(pending, results, budget)
        session = self._session
        batch_fallbacks = 0
        for slot, (pattern, plan) in enumerate(units):
            if results[slot] is None:
                if budget is not None and budget.expired():
                    continue
                results[slot] = session._execute(pattern, plan)
                self._serial_fallbacks += 1
                batch_fallbacks += 1
        self.last_batch_clean = not self._broken and batch_fallbacks == 0
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
        """The resilience-layer counters (fed into ``session.stats()``)."""
        return {
            "retries": self._retries,
            "deadline_kills": self._deadline_kills,
            "quarantined": self._quarantined,
            "respawns": self._respawns,
            "worker_crashes": self._worker_crashes,
            "corrupt_results": self._corrupt_results,
            "malformed_tasks": self._malformed_tasks,
            "worker_errors": self._worker_errors,
            "lost_tasks": self._lost_tasks,
            "exhausted_tasks": self._exhausted_tasks,
            "budget_stops": self._budget_stops,
            "worker_fault_notes": dict(self._fault_notes),
        }

    def __repr__(self) -> str:
        state = "up" if self.started else "down"
        return (
            f"<WorkerPool {state} workers={self.workers} "
            f"pinned=v{self._pinned_version}>"
        )
