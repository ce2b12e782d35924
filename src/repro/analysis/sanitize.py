"""Runtime sanitizer: dynamic counterpart of the static checkers.

``REPRO_SANITIZE=1`` arms thin assertion hooks at the engine's trust
boundaries — cache put/get, patch application, distance-store adoption,
the oracle's ball memo, and the worker-pool handshake — verifying at
runtime the same invariants ``repro lint`` checks statically.  One CI lane runs the engine/parallel/distance/incremental
suites with the sanitizer armed.

Cost discipline: every hook site is guarded by ``if _sanitize.ENABLED:``
— a module-attribute load and branch (~tens of ns) when disarmed, so the
hooks are safe on hot paths.  This module must import nothing beyond the
stdlib ``os`` at module level; it is imported by the engine's core.

Tests may arm/disarm programmatically by assigning :data:`ENABLED`
directly (the environment variable is only read at import time).
"""

from __future__ import annotations

import os

__all__ = ["ENABLED", "SanitizeError", "fail"]


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


#: Armed state; hook sites branch on this module attribute.
ENABLED = _env_enabled()


class SanitizeError(AssertionError):
    """An engine invariant observed to be violated at runtime."""


def fail(message: str) -> None:
    raise SanitizeError(message)


# ----------------------------------------------------------------------
# cache contracts
# ----------------------------------------------------------------------


def cache_put(cache_name: str, key: object, value: object) -> None:
    """``None`` is the miss sentinel of :class:`BoundedBitsCache`.

    Caching a ``None`` value is a silent bug: every subsequent ``get``
    reports a miss and the entry is dead weight that still costs eviction.
    """
    if value is None:
        fail(
            f"{cache_name}.put({key!r}, None): None is the miss sentinel; "
            "caching it makes the entry unreadable"
        )


def result_cache_put(key: object, result: object) -> None:
    """ResultCache keys are ``(fingerprint, version, strategy)``.

    The snapshot version must stay at index 1 — stale-entry eviction reads
    it positionally.
    """
    if (
        not isinstance(key, tuple)
        or len(key) != 3
        or not isinstance(key[0], str)
        or not isinstance(key[1], int)
        or not isinstance(key[2], str)
    ):
        fail(
            f"ResultCache.put: malformed key {key!r}; expected "
            "(fingerprint: str, version: int, strategy: str)"
        )
    from repro.matching.match_result import MatchResult

    if not isinstance(result, MatchResult):
        fail(
            f"ResultCache.put: value must be a MatchResult, got "
            f"{type(result).__name__}"
        )


# ----------------------------------------------------------------------
# patch layer
# ----------------------------------------------------------------------


def patch_applied(compiled) -> None:
    """After a patch, the snapshot may trail the graph but never lead it."""
    graph = compiled.graph
    if graph is not None and compiled.version > graph.version:
        fail(
            f"snapshot version {compiled.version} is ahead of graph version "
            f"{graph.version} after a patch; patches must follow the "
            "corresponding graph mutation"
        )


# ----------------------------------------------------------------------
# shared distance store
# ----------------------------------------------------------------------


def store_adopted(compiled, store) -> None:
    """A snapshot's shared distance store must be current when handed out.

    Its stamp equals the snapshot's version, which equals the graph's, and
    it covers every interned node with a full ``n x n`` cell array.
    """
    graph = compiled.graph
    if (
        store.compiled is not compiled
        or store.version != compiled.version
        or (graph is not None and graph.version != compiled.version)
        or store.num_nodes < compiled.num_nodes
        or len(store.flat) != store.num_nodes * store.num_nodes
    ):
        fail(
            f"distance store v{store.version} of {store.num_nodes} nodes "
            f"handed out for snapshot v{compiled.version} of "
            f"{compiled.num_nodes} nodes (graph "
            f"v{graph.version if graph is not None else '?'})"
        )


# ----------------------------------------------------------------------
# ball memo
# ----------------------------------------------------------------------


def primed_ball(ball, num_nodes: int) -> None:
    """A ball entering the oracle's memo must be compact and in id range.

    Sparse balls are index tuples, dense ones bitset ints; either way every
    member must be an interned id of the snapshot the memo is pinned to.
    """
    if type(ball) is tuple:
        for index in ball:
            if type(index) is not int or index < 0 or index >= num_nodes:
                fail(
                    f"memoised sparse ball contains out-of-range index "
                    f"{index!r} (snapshot has {num_nodes} nodes)"
                )
    elif type(ball) is int:
        if ball < 0 or ball >> num_nodes:
            fail(
                "memoised dense ball has bits outside the snapshot's "
                f"{num_nodes}-node id range"
            )
    else:
        fail(
            f"memoised ball must be an index tuple or a bitset int, got "
            f"{type(ball).__name__}"
        )


# ----------------------------------------------------------------------
# worker-pool handshake
# ----------------------------------------------------------------------

_RESULT_STATUSES = frozenset({"ok", "stale", "error", "ack"})


def pool_task(task) -> None:
    """Tasks are ``(task_id, expected_version, (pattern, plan))``."""
    if not isinstance(task, tuple) or len(task) != 3:
        fail(f"worker task has shape {type(task).__name__}; expected 3-tuple")
    task_id, expected_version, _payload = task
    if not isinstance(task_id, int):
        fail(f"worker task has malformed id: {task_id!r}")
    if not isinstance(expected_version, int):
        fail(
            "worker task carries no integer expected_version; the "
            "staleness handshake cannot run"
        )


def pool_result(item, pending=None, parent_version=None) -> None:
    """Results are ``(worker_id, task_id, status, payload)``.

    With the parent's *pending* tasks (``task_id -> _PendingTask``) and its
    snapshot version, an ``ok`` payload of a pending task is also checked:
    it is the fixpoint's ``{pattern node: bitset}`` with one non-negative
    int per pattern node, and the parent's snapshot is still at the version
    the task was dispatched at, since the parent decodes the bitsets
    against it.
    """
    if not isinstance(item, tuple) or len(item) != 4:
        fail(f"worker result has shape {type(item).__name__}; expected 4-tuple")
    worker_id, task_id, status, payload = item
    if not isinstance(worker_id, int) or not isinstance(task_id, int):
        fail(f"worker result has malformed ids: {worker_id!r}, {task_id!r}")
    if status not in _RESULT_STATUSES:
        fail(f"worker result has unknown status {status!r}")
    task = pending.get(task_id) if pending is not None else None
    if status != "ok" or task is None:
        return
    pattern_nodes = task.payload[0].node_list()
    if (
        not isinstance(payload, dict)
        or len(payload) != len(pattern_nodes)
        or any(
            type(payload.get(u)) is not int or payload[u] < 0
            for u in pattern_nodes
        )
    ):
        fail(
            f"worker answer for task {task_id} is not one bitset int per "
            f"pattern node: {type(payload).__name__} for {len(pattern_nodes)} "
            "pattern nodes"
        )
    if parent_version != task.version:
        fail(
            f"worker answer for task {task_id} was dispatched at snapshot "
            f"v{task.version} but the parent is at v{parent_version}; its "
            "bitsets would decode against the wrong interning"
        )
