"""Built-in checkers.

Importing this package registers every built-in rule with
:mod:`repro.analysis.registry`.  Each module holds one rule; the rule ids
are the stable public contract (used in suppression comments, JSON output
and CI logs):

========================  ====================================================
``version-guard``         memo reads must sit behind a snapshot-version check
``patch-listener``        snapshot-derived caches must subscribe or version
``decode-boundary``       public surfaces must not leak interned-id bitsets
========================  ====================================================
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401
    decode_boundary,
    patch_listener,
    version_guard,
)

__all__ = [
    "decode_boundary",
    "patch_listener",
    "version_guard",
]
