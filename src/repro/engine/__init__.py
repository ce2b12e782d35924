"""The unified query engine: sessions, plans, result caching, batch execution.

* :class:`MatchSession` — pins one compiled snapshot + kernel + shared
  caches per data graph and serves every query style (bounded match, graph
  simulation, IncMatch maintenance, batched workloads) through one façade;
* :class:`QueryPlan` / :func:`plan_query` — explainable per-query strategy
  selection;
* :class:`ResultCache` — the ``(fingerprint, snapshot version, strategy)``
  keyed result cache with patch-layer invalidation;
* :class:`WorkerPool` — the session-owned persistent fork pool behind
  parallel :meth:`MatchSession.match_many`; it runs whole queries.
"""

from repro.engine.cache import DEFAULT_RESULT_CACHE_SIZE, ResultCache
from repro.engine.parallel import WorkerPool, fork_available
from repro.engine.planner import (
    STRATEGY_BOUNDED,
    STRATEGY_INCREMENTAL,
    STRATEGY_SIMULATION,
    QueryPlan,
    plan_query,
)
from repro.engine.session import MatchSession

__all__ = [
    "MatchSession",
    "QueryPlan",
    "plan_query",
    "ResultCache",
    "DEFAULT_RESULT_CACHE_SIZE",
    "STRATEGY_SIMULATION",
    "STRATEGY_BOUNDED",
    "STRATEGY_INCREMENTAL",
    "WorkerPool",
    "fork_available",
]
