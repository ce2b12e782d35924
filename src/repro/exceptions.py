"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "DuplicateNodeError",
    "DuplicateEdgeError",
    "PatternError",
    "PredicateError",
    "InvalidBoundError",
    "MatchingError",
    "NoMatchError",
    "EngineError",
    "IncrementalError",
    "CyclicPatternError",
    "DistanceOracleError",
    "DistanceOverflowError",
    "DatasetError",
    "ExperimentError",
    "SerializationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors concerning data graphs."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was referenced that is not present in the graph."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self):
        return f"node {self.node!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that is not present in the graph."""

    def __init__(self, source, target):
        super().__init__((source, target))
        self.source = source
        self.target = target

    def __str__(self):
        return f"edge ({self.source!r}, {self.target!r}) is not in the graph"


class DuplicateNodeError(GraphError, ValueError):
    """A node id was added twice to a graph that forbids duplicates."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self):
        return f"node {self.node!r} is already in the graph"


class DuplicateEdgeError(GraphError, ValueError):
    """An edge was added twice to a graph that forbids duplicates."""

    def __init__(self, source, target):
        super().__init__((source, target))
        self.source = source
        self.target = target

    def __str__(self):
        return f"edge ({self.source!r}, {self.target!r}) is already in the graph"


class PatternError(ReproError):
    """Base class for errors concerning pattern graphs."""


class PredicateError(PatternError, ValueError):
    """A node predicate is malformed (unknown operator, bad literal, ...)."""


class InvalidBoundError(PatternError, ValueError):
    """An edge bound is neither a positive integer nor the unbounded marker."""

    def __init__(self, bound):
        super().__init__(bound)
        self.bound = bound

    def __str__(self):
        return (
            f"invalid edge bound {self.bound!r}: expected a positive integer "
            "or the unbounded marker '*'"
        )


class MatchingError(ReproError):
    """Base class for errors raised by the matching algorithms."""


class NoMatchError(MatchingError):
    """Raised by APIs that require a match when ``P`` does not match ``G``."""


class EngineError(MatchingError):
    """Errors raised by the query-engine layer (:mod:`repro.engine`)."""


class IncrementalError(MatchingError):
    """Base class for errors raised by the incremental matching algorithms."""


class CyclicPatternError(IncrementalError):
    """An incremental operation that requires a DAG pattern received a cyclic one."""


class DistanceOracleError(ReproError):
    """Base class for errors raised by distance oracles."""


class DistanceOverflowError(DistanceOracleError):
    """A shortest distance is too long for the byte cells of the IncMatch store.

    :class:`~repro.distance.matrix.InternedDistanceStore` holds distances of
    at most 254 hops; building or repairing a store that would need a longer
    one raises this instead of storing a wrong value.
    """


class DatasetError(ReproError):
    """A dataset could not be generated or loaded."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class SerializationError(ReproError, ValueError):
    """A graph or pattern could not be parsed from, or written to, a file."""
