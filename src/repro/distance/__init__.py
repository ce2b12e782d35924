"""Distance substrates: matrix ``M``, BFS, 2-hop labels, compiled engine, incremental APSP.

Oracle selection guide
----------------------
Four oracles answer the bounded-connectivity queries of Algorithm ``Match``;
all implement :class:`~repro.distance.oracle.DistanceOracle` and return
identical answers (the equivalence suites assert it):

:class:`~repro.distance.compiled.CompiledDistanceMatrix`
    **The default of ``match()``.**  Lazy flat-array engine over the
    compiled snapshot: rows/columns are per-node ``array('i')`` vectors
    computed by the :class:`~repro.distance.compiled.FlatBFSKernel` on first
    use (behind a size-capped LRU), bounded balls come out as bitsets.
    Precompute is proportional to what the query actually touches, so it
    wins whenever the candidate sets are smaller than the graph — which is
    essentially always.  Prefer it unless one of the cases below applies.

:class:`~repro.distance.matrix.DistanceMatrix`
    The paper's precomputed matrix ``M`` — one BFS per node, O(1) lookups,
    one byte per pair.  A node-id view over an
    :class:`~repro.distance.matrix.InternedDistanceStore` of its own, so
    distances are limited to 254 hops.  The paper's Exp-2 ``Match``
    baseline, and still the right call when *every* pair will be queried
    many times.

:class:`~repro.distance.bfs.BFSDistanceOracle`
    On-demand memoised BFS — no precompute at all.  The paper's ``BFS``
    variant; useful when only a handful of queries will ever be asked and
    even lazy vectors are too much.

:class:`~repro.distance.twohop.TwoHopOracle`
    Pruned-landmark 2-hop labels — the paper's ``2-hop`` variant.  Pays a
    label build to answer *point* distance/reachability queries from a
    compact index; best when the graph is large, mostly disconnected, and
    ball queries are rare.

Staleness/epoch rules: every oracle watches its graph's ``version`` counter
and drops derived state when it moves (``DistanceMatrix`` requires an
explicit ``refresh()``, by contract).  Bitset queries additionally check
that the snapshot they are handed is the one the oracle answers from;
anything else falls back to a slow, correct path.  All bitset memos share
the size-capped :class:`~repro.distance.oracle.BoundedBitsCache` LRU.

For IncMatch, :func:`~repro.distance.incremental.build_store` hands the
repair procedures a fully populated
:class:`~repro.distance.matrix.InternedDistanceStore`.
"""

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.compiled import CompiledDistanceMatrix, FlatBFSKernel
from repro.distance.incremental import (
    AffectedPairs,
    EdgeUpdate,
    apply_updates,
    build_store,
    merge_affected_into,
    update_store_batch,
    update_store_delete,
    update_store_insert,
)
from repro.distance.matrix import DistanceMatrix, InternedDistanceStore
from repro.distance.oracle import (
    INF,
    BoundedBitsCache,
    DistanceOracle,
)
from repro.distance.twohop import TwoHopOracle

__all__ = [
    "INF",
    "DistanceOracle",
    "BoundedBitsCache",
    "DistanceMatrix",
    "InternedDistanceStore",
    "BFSDistanceOracle",
    "TwoHopOracle",
    "CompiledDistanceMatrix",
    "FlatBFSKernel",
    "EdgeUpdate",
    "AffectedPairs",
    "build_store",
    "update_store_insert",
    "update_store_delete",
    "update_store_batch",
    "merge_affected_into",
    "apply_updates",
]
