"""Project-specific static analysis for the compiled/concurrent core.

The engine's correctness rests on a handful of cross-cutting disciplines
that no general-purpose linter knows about: every memoised read must be
guarded by a snapshot version (or validate the entry against its inputs),
every snapshot-derived cache must subscribe to the patch layer or track a
version, and raw interned-id bitsets must never cross the public API
boundary.  This package makes those implicit contracts explicit and
machine-checkable:

* :mod:`repro.analysis.model` — a pure-stdlib :mod:`ast` walker that builds
  per-file symbol/type models (which ``self.X`` attributes hold a
  :class:`~repro.distance.oracle.BoundedBitsCache`, which functions contain
  a version compare, ...);
* :mod:`repro.analysis.checkers` — the rule implementations, registered
  with :mod:`repro.analysis.registry`;
* :mod:`repro.analysis.runner` — file discovery, suppression handling
  (``# repro: ignore[rule] -- justification``) and the text/JSON reports
  behind ``repro lint``;
* :mod:`repro.analysis.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  counterpart: thin assertion hooks on cache get/put, patch application and
  the worker-pool handshake that verify the same invariants dynamically.

Import cost matters: the core engine imports :mod:`repro.analysis.sanitize`
on its hot paths, so this package's ``__init__`` must stay dependency-free.
The analyzer proper is loaded lazily through :func:`__getattr__`.
"""

from __future__ import annotations

__all__ = [
    "Finding",
    "LintReport",
    "analyze_paths",
    "all_checkers",
]


def __getattr__(name):
    if name in ("Finding",):
        from repro.analysis.findings import Finding

        return Finding
    if name in ("LintReport", "analyze_paths"):
        from repro.analysis import runner

        return getattr(runner, name)
    if name == "all_checkers":
        from repro.analysis.registry import all_checkers

        return all_checkers
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
