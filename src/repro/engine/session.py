"""`MatchSession` — the unified query engine façade.

A :class:`MatchSession` pins the state a query needs **once** per data
graph and amortises it across an entire query workload:

* one :class:`~repro.graph.compiled.CompiledGraph` snapshot (through the
  version-aware :func:`~repro.graph.compiled.compile_graph` cache) plus its
  :class:`~repro.distance.compiled.FlatBFSKernel`;
* a memo of ``anc_b`` searches keyed by ``(bound, child set)`` for the
  set-at-a-time route, shared by the session's queries and dropped on
  every patch and re-pin;
* lazily, one :class:`~repro.distance.compiled.CompiledDistanceMatrix`
  oracle (:attr:`MatchSession.oracle`) whose ball memos live in a
  session-owned shared :class:`~repro.distance.oracle.BoundedBitsCache`,
  for callers that ask for balls directly;
* lazily, the snapshot's shared
  :class:`~repro.distance.matrix.InternedDistanceStore` for the IncMatch
  machinery (:meth:`CompiledGraph.distance_store`), which the session's
  standing matchers repair in place;
* a result cache keyed by ``(pattern fingerprint, snapshot version,
  strategy)``, with eviction wired into the snapshot's patch layer so
  :meth:`patch_edge_insert`/:meth:`patch_edge_delete` (and the update
  streams of the incremental matcher) invalidate exactly the entries they
  made stale.

Each query is planned (:mod:`repro.engine.planner`) before execution and
runs one of two refinement routes:

* **set at a time** (the default, under both the ``bounded`` and the
  ``simulation`` strategy): :func:`~repro.matching.bounded.refine_sets_to_fixpoint`
  intersects each candidate set with one reverse level search from each
  child set, seeded in the planner's sinks-first edge order; graph
  simulation is the same refinement with every bound 1;
* **counting** (only a session opened with an explicit ``oracle=``):
  :func:`~repro.matching.bounded.refine_bits_to_fixpoint`,
  the paper's Algorithm Match, which counts each candidate's support in
  the given oracle's balls, so the paper's matrix, BFS and 2-hop variants
  measure their own work.

Attached update streams route to ``IncMatch``, whose standing matchers
seed and re-pin their sets with the set-at-a-time refinement too, and
:meth:`match_many` runs a whole pattern workload over the shared read-only
snapshot, dispatching whole queries to the session's persistent fork
worker pool when the workload is worth it (:mod:`repro.engine.parallel`).
Without ``fork`` the batch runs serially.

The free functions :func:`repro.matching.bounded.match` and
:func:`repro.matching.simulation.graph_simulation` are thin wrappers that
open a throwaway session, so the one-shot API keeps working unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.distance.compiled import CompiledDistanceMatrix
from repro.distance.incremental import EdgeUpdate
from repro.distance.matrix import InternedDistanceStore
from repro.distance.oracle import (
    DEFAULT_BITS_CACHE_SIZE,
    BoundedBitsCache,
    DistanceOracle,
)
from repro.engine.cache import DEFAULT_RESULT_CACHE_SIZE, CacheKey, ResultCache
from repro.engine.parallel import WorkerPool, fork_available
from repro.exceptions import EngineError
from repro.engine.planner import (
    STRATEGY_INCREMENTAL,
    STRATEGY_SIMULATION,
    QueryPlan,
    plan_query,
)
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.affected import AffectedArea
from repro.matching.bounded import (
    candidate_bits,
    refine_bits_to_fixpoint,
    refine_sets_to_fixpoint,
)
from repro.matching.incremental import IncrementalMatcher
from repro.matching.match_result import MatchResult
from repro.matching.simulation import ADJACENCY_ORACLE
from repro.reliability import faults as _faults

__all__ = ["MatchSession"]

#: ``parallel=None`` starts the worker pool only when |V| x pending queries
#: clears this bar — below it even the *one-time* spawn cost of the
#: persistent pool is unlikely to amortise over the session.  (Once the pool
#: is already live, batches of any size may use it: dispatch is just IPC.)
AUTO_POOL_WORK_FLOOR = 400_000
#: ``parallel=None`` never *starts* a pool for fewer pending queries than this.
AUTO_POOL_MIN_QUERIES = 4
#: Cap on standing IncrementalMatchers kept per session; least recently used
#: patterns are dropped.  The matchers share their snapshot's one distance
#: store, so each costs only its pattern's match and candidate bitsets.
DEFAULT_MAX_MATCHERS = 16
#: Cap on memoised ``anc_b`` searches of the set-at-a-time route, keyed by
#: ``(bound, child set)`` and shared across the queries of one session (see
#: :func:`repro.matching.bounded.refine_sets_to_fixpoint`).  Each entry costs
#: two ``|V|``-bit integers: the child set and its ancestor set.
DEFAULT_EDGE_CACHE_SIZE = 512


class MatchSession:
    """A standing query session over one (possibly evolving) data graph.

    Queries run the set-at-a-time refinement by default and the counting
    refinement (the paper's Algorithm Match) when the session is opened
    with an explicit *oracle*; see the module docstring.

    Parameters
    ----------
    graph:
        The data graph to serve queries against.  The session follows the
        graph's version counter: mutations applied through the session (or
        through an :class:`IncrementalMatcher` it spawned) keep the pinned
        snapshot patched in place; out-of-band mutations are detected at the
        next query and answered with a re-pin.
    oracle:
        An explicit distance substrate.  Supplying one switches every query
        to the counting route (the paper's Algorithm Match) against that
        oracle and disables the planner's adjacency fast path, so the
        paper's matrix/BFS/2-hop variants measure what they claim to.
        Without it, queries run the set-at-a-time route, which needs no
        oracle.
    on_cyclic:
        Passed through to spawned incremental matchers: ``"raise"``
        (default) or ``"recompute"`` for insertions with cyclic patterns.
    result_cache_size, bits_cache_size:
        Caps for the result cache and the shared ball-bitset LRU of
        :attr:`oracle` (``None`` where accepted = unbounded).
    edge_cache_size:
        Cap on the set-at-a-time route's ``(bound, child set) -> anc_b``
        memo (``None`` = unbounded, ``0`` = no memo).  Unused with an
        explicit *oracle*.
    selectivity_order:
        When true (default), plans carry a cost-based edge refinement order
        estimated from the snapshot's attribute-index popcounts and the
        fixpoint seeds edges in that order (see
        :mod:`repro.engine.planner`).  Disable to refine in the pattern's
        native edge order (the pre-planner behaviour); results are
        identical either way.

    Examples
    --------
    >>> from repro.graph.builders import drug_trafficking_graph, drug_trafficking_pattern
    >>> session = MatchSession(drug_trafficking_graph())
    >>> result = session.match(drug_trafficking_pattern())
    >>> bool(result)
    True
    """

    def __init__(
        self,
        graph: DataGraph,
        *,
        oracle: Optional[DistanceOracle] = None,
        on_cyclic: str = "raise",
        result_cache_size: Optional[int] = DEFAULT_RESULT_CACHE_SIZE,
        bits_cache_size: int = DEFAULT_BITS_CACHE_SIZE,
        edge_cache_size: Optional[int] = DEFAULT_EDGE_CACHE_SIZE,
        selectivity_order: bool = True,
    ) -> None:
        self._graph = graph
        self._on_cyclic = on_cyclic
        self._bits_cache = BoundedBitsCache(bits_cache_size)
        # The set-at-a-time route's anc_b memo (cleared on every snapshot
        # move); an explicit oracle's counting route does not use it.
        self._ancestor_cache = (
            BoundedBitsCache(edge_cache_size) if edge_cache_size != 0 else None
        )
        self._oracle = oracle
        self._custom_oracle = oracle is not None
        self._cache = ResultCache(result_cache_size)
        self._matchers: "OrderedDict[str, IncrementalMatcher]" = OrderedDict()
        self._plan_counts: Dict[str, int] = {}
        self._parallel_batches = 0
        self._forked_queries = 0
        self._pool: Optional[WorkerPool] = None
        self._selectivity_order = selectivity_order
        self._compiled: CompiledGraph = compile_graph(graph)
        self._compiled.add_patch_listener(self._on_snapshot_patched)

    # ------------------------------------------------------------------
    # pinned state
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DataGraph:
        """The data graph this session serves."""
        return self._graph

    @property
    def snapshot(self) -> CompiledGraph:
        """The pinned compiled snapshot (re-pinned when the graph moved)."""
        return self._sync()

    @property
    def kernel(self):
        """The snapshot's shared :class:`FlatBFSKernel`."""
        return self._sync().flat_kernel()

    @property
    def oracle(self) -> DistanceOracle:
        """The session's distance oracle (built lazily for the default).

        The default set-at-a-time route never consults it; the first access
        materialises a :class:`CompiledDistanceMatrix` whose ball memos live
        in the session's shared bits cache.
        """
        if self._oracle is None:
            self._oracle = CompiledDistanceMatrix(
                self._graph, bits_cache=self._bits_cache
            )
        return self._oracle

    @property
    def bits_cache(self) -> BoundedBitsCache:
        """The shared ball-bitset LRU (one per session, reused across queries)."""
        return self._bits_cache

    def store(self) -> InternedDistanceStore:
        """The snapshot's IncMatch distance store (lazy, version-guarded).

        The same store the session's incremental matchers repair
        (:meth:`CompiledGraph.distance_store`).  Building it materialises the
        full matrix ``M`` (one flat BFS per node), so it is computed only on
        first demand and rebuilt only when the snapshot moved without a
        repair.
        """
        return self._sync().distance_store()

    def _sync(self) -> CompiledGraph:
        """Re-pin the snapshot when the graph's version moved out-of-band."""
        compiled = self._compiled
        if compiled.version != self._graph.version:
            compiled = compile_graph(self._graph)
            if compiled is not self._compiled:
                compiled.add_patch_listener(self._on_snapshot_patched)
                self._compiled = compiled
            self._cache.evict_stale(compiled.version)
            if self._ancestor_cache is not None:
                self._ancestor_cache.clear()
        return compiled

    def _on_snapshot_patched(self, version_before: int) -> None:
        """Patch-layer hook: drop results the mutation made stale."""
        self._cache.evict_stale(self._compiled.version)
        if self._ancestor_cache is not None:
            self._ancestor_cache.clear()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(
        self,
        pattern: Pattern,
        *,
        updates: Optional[Sequence[EdgeUpdate]] = None,
        force_simulation: bool = False,
    ) -> QueryPlan:
        """Plan *pattern* against the current snapshot without executing it."""
        compiled = self._sync()
        plan = plan_query(
            pattern,
            snapshot_version=compiled.version,
            updates=updates,
            custom_oracle=self._custom_oracle,
            force_simulation=force_simulation,
            compiled=compiled,
            selectivity_order=self._selectivity_order,
        )
        self._plan_counts[plan.strategy] = self._plan_counts.get(plan.strategy, 0) + 1
        return plan

    def explain(self, pattern: Pattern, **kwargs) -> str:
        """The human-readable plan for *pattern* (see :meth:`QueryPlan.explain`)."""
        return self.plan(pattern, **kwargs).explain()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def match(
        self,
        pattern: Pattern,
        *,
        updates: Optional[Sequence[EdgeUpdate]] = None,
    ) -> MatchResult:
        """The maximum bounded-simulation match of *pattern*, via the planner.

        With *updates* the session applies the stream through an
        :class:`IncrementalMatcher` it keeps per pattern fingerprint
        (IncMatch maintenance) and returns the maintained match; without, it
        answers from the result cache when the snapshot has not moved and
        runs the planned fixpoint otherwise.
        """
        if updates is not None:
            result, _ = self.apply_updates(pattern, updates)
            return result
        plan = self.plan(pattern)
        cached = self._cache.get(plan.cache_key)
        if cached is not None:
            return cached
        result = self._execute(pattern, plan)
        self._cache.put(plan.cache_key, result)
        return result

    def simulate(self, pattern: Pattern) -> MatchResult:
        """The maximum graph-simulation relation (bounds ignored), planned/cached."""
        plan = self.plan(pattern, force_simulation=True)
        cached = self._cache.get(plan.cache_key)
        if cached is not None:
            return cached
        result = self._execute(pattern, plan)
        self._cache.put(plan.cache_key, result)
        return result

    def match_many(
        self,
        patterns: Iterable[Pattern],
        *,
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
    ) -> List[MatchResult]:
        """Match a whole pattern workload over the shared read-only snapshot.

        Cache hits (and duplicate patterns within the batch) are answered
        once; the remaining queries run either serially or on the session's
        **persistent** :class:`~repro.engine.parallel.WorkerPool` — workers
        forked once (copy-on-write) that keep their ball/seed memos warm
        across batches.  On platforms without ``fork`` every batch runs the
        serial loop, whatever *parallel* says.  A query the pool fails to
        answer (worker crash, hang, stuck queue, stale snapshot) is computed
        serially in the parent, so the pooled batch returns exactly what the
        serial loop would.

        Parameters
        ----------
        parallel:
            ``True`` forces the pool (with transparent serial fallback when
            workers cannot serve), ``False`` forces serial, ``None``
            (default) decides from the workload size — and never *starts* a
            pool for a workload too small to amortise the spawn cost.
        max_workers:
            Pool size cap (default: CPU count); changing it across calls
            respawns the pool at the new size.
        """
        patterns = list(patterns)
        results: List[Optional[MatchResult]] = [None] * len(patterns)
        pending: Dict[CacheKey, List[int]] = {}
        pending_units: List[Tuple[Pattern, QueryPlan]] = []
        for index, pattern in enumerate(patterns):
            plan = self.plan(pattern)
            cached = self._cache.get(plan.cache_key)
            if cached is not None:
                results[index] = cached
                continue
            slot = pending.get(plan.cache_key)
            if slot is None:
                pending[plan.cache_key] = [index]
                pending_units.append((pattern, plan))
            else:
                slot.append(index)
        if pending_units:
            compiled = self._sync()
            if parallel is None:
                pool_live = self._pool is not None and self._pool.started
                use_pool = pool_live or (
                    len(pending_units) >= AUTO_POOL_MIN_QUERIES
                    and compiled.num_nodes * len(pending_units)
                    >= AUTO_POOL_WORK_FLOOR
                )
            else:
                use_pool = bool(parallel)
            if use_pool and fork_available():
                pool = self.worker_pool(max_workers=max_workers)
                computed = pool.run_units(pending_units)
                self._parallel_batches += 1
                self._forked_queries += len(pending_units)
            else:
                computed = [
                    self._execute(pattern, plan) for pattern, plan in pending_units
                ]
            for (key, indices), result in zip(pending.items(), computed):
                self._cache.put(key, result)
                for index in indices:
                    results[index] = result
        return results

    def worker_pool(
        self,
        *,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> WorkerPool:
        """The session's persistent worker pool (created on first use).

        Workers are not forked here — that happens on the first dispatch —
        so holding a pool object is free.  Passing a *max_workers* or
        *task_timeout* different from the current pool's shuts the old pool
        down and builds a new one with the requested configuration.  Raises
        :class:`~repro.exceptions.EngineError` on platforms without
        ``fork``.
        """
        if not fork_available():
            raise EngineError("the worker pool needs the 'fork' start method")
        pool = self._pool
        if pool is not None and (
            (max_workers is not None and max_workers != pool._max_workers)
            or (task_timeout is not None and task_timeout != pool._task_timeout)
        ):
            pool.shutdown()
            pool = None
        if pool is None:
            kwargs = {}
            if task_timeout is not None:
                kwargs["task_timeout"] = task_timeout
            pool = WorkerPool(self, max_workers=max_workers, **kwargs)
            self._pool = pool
        return pool

    def _execute(self, pattern: Pattern, plan: QueryPlan) -> MatchResult:
        """Run the planned fixpoint against the pinned snapshot (a lazy result)."""
        return MatchResult.from_bits(
            self._execute_bits(pattern, plan), self._compiled, pattern.node_list()
        )

    def _execute_bits(
        self, pattern: Pattern, plan: QueryPlan
    ) -> Dict[PatternNodeId, int]:
        """The planned fixpoint's ``{u: bitset}``, one entry per pattern node.

        Every set is ``0`` when the relation is empty.  Uses
        :attr:`_compiled` directly (not :meth:`_sync`): forked workers must
        execute against the snapshot pinned before the fork, and ship this
        dict to the parent undecoded.
        """
        compiled = self._compiled
        pattern_nodes = pattern.node_list()
        if not pattern_nodes or compiled.num_nodes == 0:
            return dict.fromkeys(pattern_nodes, 0)
        mat_bits = candidate_bits(pattern, compiled)
        if not all(mat_bits.values()):
            return dict.fromkeys(pattern_nodes, 0)
        simulation = plan.strategy == STRATEGY_SIMULATION
        if self._custom_oracle:
            # The paper's Algorithm Match against the oracle it was given:
            # the BFS/2-hop/matrix variants must measure their own work.
            refine_bits_to_fixpoint(
                pattern,
                ADJACENCY_ORACLE if simulation else self._oracle,
                compiled,
                mat_bits,
                stop_when_empty=True,
                edge_order=plan.edge_order or None,
            )
        else:
            refine_sets_to_fixpoint(
                pattern,
                compiled,
                mat_bits,
                edge_order=plan.edge_order or None,
                unit_bounds=simulation,
                ancestor_memo=self._ancestor_cache,
            )
        if not all(mat_bits.values()):
            return dict.fromkeys(pattern_nodes, 0)
        return mat_bits

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------

    def incremental_matcher(self, pattern: Pattern) -> IncrementalMatcher:
        """The session's standing :class:`IncrementalMatcher` for *pattern*.

        One matcher is kept per pattern fingerprint; updates applied through
        it patch the pinned snapshot in place, which fires the result
        cache's invalidation hook.
        """
        fingerprint = pattern.fingerprint()
        matcher = self._matchers.get(fingerprint)
        if matcher is None or matcher.graph is not self._graph:
            matcher = IncrementalMatcher(
                pattern, self._graph, on_cyclic=self._on_cyclic
            )
            self._matchers[fingerprint] = matcher
        # LRU: the standing set stays small (see DEFAULT_MAX_MATCHERS).
        self._matchers.move_to_end(fingerprint)
        while len(self._matchers) > DEFAULT_MAX_MATCHERS:
            self._matchers.popitem(last=False)
        return matcher

    def apply_updates(
        self, pattern: Pattern, updates: Sequence[EdgeUpdate]
    ) -> Tuple[MatchResult, AffectedArea]:
        """IncMatch: apply *updates* and return the maintained match + AFF2.

        The maintained match is also seeded into the result cache under the
        query's post-update cache key, so a follow-up :meth:`match` of the
        same pattern is a cache hit instead of a recompute.
        """
        plan = self.plan(pattern, updates=updates)
        assert plan.strategy == STRATEGY_INCREMENTAL
        matcher = self.incremental_matcher(pattern)
        area = matcher.apply(list(updates))
        result = matcher.match
        # Keyed like a later session.match() plan of the same pattern; the
        # key holds no edge order, so no cardinality estimate is needed.
        followup = plan_query(
            pattern,
            snapshot_version=self._sync().version,
            custom_oracle=self._custom_oracle,
        )
        self._cache.put(followup.cache_key, result)
        return result, area

    # ------------------------------------------------------------------
    # mutation through the session
    # ------------------------------------------------------------------

    def patch_edge_insert(self, source: NodeId, target: NodeId) -> bool:
        """Insert edge ``source -> target``: mutate the graph, patch the snapshot.

        Both endpoints must already exist.  Returns ``False`` (a true no-op)
        when the edge is already present; otherwise the patch layer fires
        the result cache's invalidation hook and returns ``True``.
        """
        compiled = self._sync()
        if self._graph.has_edge(source, target):
            return False
        self._graph.add_edge(source, target)
        compiled.patch_edge_insert(source, target)
        return True

    def patch_edge_delete(self, source: NodeId, target: NodeId) -> bool:
        """Delete edge ``source -> target``; ``False`` when it did not exist."""
        compiled = self._sync()
        if not self._graph.has_edge(source, target):
            return False
        self._graph.remove_edge(source, target)
        compiled.patch_edge_delete(source, target)
        return True

    # ------------------------------------------------------------------
    # public façade
    # ------------------------------------------------------------------

    def handle(self) -> "GraphHandle":  # noqa: F821 - imported lazily
        """Wrap this session in the public :class:`repro.api.GraphHandle`.

        The handle adds the user-facing layers (DSL parsing, fluent
        builders, lazy :class:`~repro.api.ResultView` results) on top of
        this session without re-pinning any state — the inverse bridge of
        ``GraphHandle(graph)``, for callers who tuned a session first.
        """
        from repro.api.handle import GraphHandle

        return GraphHandle.from_session(self)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for tests, benchmarks and the CLI report."""
        plan = _faults.active_plan()
        reliability: Dict[str, object] = {
            "faults_armed": plan.to_env() if plan is not None else None,
        }
        if self._pool is not None:
            reliability.update(self._pool.reliability_stats())
        return {
            "snapshot_version": self._compiled.version,
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
            "cache_entries": len(self._cache),
            "cache_evictions": self._cache.evictions,
            "plans": dict(self._plan_counts),
            "parallel_batches": self._parallel_batches,
            "forked_queries": self._forked_queries,
            "incremental_matchers": len(self._matchers),
            "pool": self._pool.stats() if self._pool is not None else None,
            "reliability": reliability,
        }

    def close(self) -> None:
        """Drop cached state and shut the worker pool down.

        The session stays usable afterwards; caches refill and the pool
        respawns on the next parallel dispatch.  The snapshot's distance
        store is not the session's to drop: it stays with the snapshot for
        every other matcher on the graph.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._cache.clear()
        self._matchers.clear()
        if self._ancestor_cache is not None:
            self._ancestor_cache.clear()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<MatchSession over {self._graph!r} "
            f"v{self._compiled.version} cache={len(self._cache)}>"
        )
