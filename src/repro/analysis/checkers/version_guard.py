"""``version-guard`` — memo reads must be guarded by a snapshot version.

A "memo" is any ``self.<attr>`` inferred to hold a
:class:`~repro.distance.oracle.BoundedBitsCache` (or one of the known
dict-based memo attributes), or a parameter named ``ancestor_memo``.  Any
function that *reads* such a memo — ``memo.get(...)``, ``memo[key]`` in a
load position, or ``key in memo`` — must do one of:

* compare a snapshot version somewhere in its body
  (``if self._synced_version != graph.version: ...``);
* call a same-module helper that does (``self._sync()`` /
  ``self._check_version()``);
* validate the fetched entry against its own inputs
  (``if entry[0] != parent_static or entry[1] != child_static:`` — the
  self-validating memo idiom).

Memos created fresh inside the function (``balls = {}``) are exempt: they
cannot outlive a snapshot.  Classes whose entries embed the version in
the cache *key* should suppress with a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.model import (
    MEMO_CONSTRUCTORS,
    MEMO_PARAM_NAMES,
    FunctionModel,
    ModuleModel,
    call_name,
)
from repro.analysis.registry import Checker, Project, register

__all__ = ["VersionGuardChecker"]

_FRESH_CTORS = MEMO_CONSTRUCTORS | {"dict", "OrderedDict"}


def _memo_names_for_function(
    fn: FunctionModel, memo_attrs: Set[str]
) -> Dict[str, str]:
    """Local names that refer to a version-sensitive memo inside *fn*.

    Maps local name -> description of the memo's origin.  Covers
    ``ancestor_memo``-style parameters and aliases of memo-holding
    ``self.<attr>`` (``cache = self._bits_cache``).  Names rebound to a
    fresh container inside the function are removed — a memo that cannot
    outlive the call needs no guard.
    """
    names: Dict[str, str] = {
        p: f"parameter {p!r}" for p in fn.params if p in MEMO_PARAM_NAMES
    }
    for sub in fn.body_walk():
        if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
            continue
        target = sub.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = sub.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and value.attr in memo_attrs
        ):
            names[target.id] = f"self.{value.attr}"
        elif isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and call_name(value) in _FRESH_CTORS
        ):
            # Fresh function-local container shadows any memo alias.
            names.pop(target.id, None)
    return names


def _self_memo_attr(node: ast.AST, memo_attrs: Set[str]) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in memo_attrs
    ):
        return node.attr
    return None


class _ReadSite:
    __slots__ = ("node", "memo", "result_names")

    def __init__(self, node: ast.AST, memo: str):
        self.node = node
        self.memo = memo
        #: Local names holding the fetched entry (for entry-validation).
        self.result_names: Set[str] = set()


def _collect_reads(
    fn: FunctionModel, memo_attrs: Set[str], local_memos: Dict[str, str]
) -> List[_ReadSite]:
    reads: List[_ReadSite] = []

    def memo_ref(expr: ast.AST) -> Optional[str]:
        attr = _self_memo_attr(expr, memo_attrs)
        if attr is not None:
            return f"self.{attr}"
        if isinstance(expr, ast.Name) and expr.id in local_memos:
            return local_memos[expr.id]
        return None

    for sub in fn.body_walk():
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "get":
                memo = memo_ref(func.value)
                if memo is not None:
                    reads.append(_ReadSite(sub, memo))
        elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Load):
            memo = memo_ref(sub.value)
            if memo is not None:
                reads.append(_ReadSite(sub, memo))
        elif isinstance(sub, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in sub.ops
        ):
            for comparator in sub.comparators:
                memo = memo_ref(comparator)
                if memo is not None:
                    reads.append(_ReadSite(sub, memo))

    # Track which local names hold a fetched entry: ``entry = memo.get(k)``.
    read_calls = {id(r.node): r for r in reads if isinstance(r.node, ast.Call)}
    for sub in fn.body_walk():
        if (
            isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
            and id(sub.value) in read_calls
        ):
            read_calls[id(sub.value)].result_names.add(sub.targets[0].id)
    return reads


def _validates_entry(fn: FunctionModel, result_names: Set[str]) -> bool:
    """True if *fn* compares fields of a fetched entry for equality.

    The self-validating memo idiom: the cached tuple embeds its own inputs
    and the read path rejects mismatches
    (``entry[0] != parent_static or ...``).  ``is None`` miss checks do
    not count.
    """
    if not result_names:
        return False
    for sub in fn.body_walk():
        if not isinstance(sub, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops):
            continue
        for operand in [sub.left, *sub.comparators]:
            if (
                isinstance(operand, ast.Subscript)
                and isinstance(operand.value, ast.Name)
                and operand.value.id in result_names
            ):
                return True
    return False


@register
class VersionGuardChecker(Checker):
    rule = "version-guard"
    description = (
        "functions reading a BoundedBitsCache / ancestor_memo / oracle memo "
        "must compare a snapshot version (or validate the entry) on the "
        "read path"
    )

    def check(self, module: ModuleModel, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        module_helpers = module.local_guard_helpers()

        for fn in module.iter_functions():
            memo_attrs: Set[str] = set()
            guard_helpers = module_helpers
            if fn.class_name:
                cls = module.classes.get(fn.class_name)
                if cls is not None:
                    # Memo attributes and guard helpers (`self._sync()`)
                    # may live on a base class in another module.
                    memo_attrs = project.memo_attrs_of(cls)
                    guard_helpers = module_helpers | {
                        method.name
                        for c in project.class_with_bases(cls)
                        for method in c.methods.values()
                        if method.has_version_compare
                    }
            local_memos = _memo_names_for_function(fn, memo_attrs)
            if not memo_attrs and not local_memos:
                continue
            reads = _collect_reads(fn, memo_attrs, local_memos)
            if not reads:
                continue
            if fn.has_version_compare:
                continue
            if fn.calls & guard_helpers:
                continue
            fetched: Set[str] = set()
            for read in reads:
                fetched |= read.result_names
            if _validates_entry(fn, fetched):
                continue
            first = reads[0]
            findings.append(
                Finding(
                    rule=self.rule,
                    path=module.path,
                    line=getattr(first.node, "lineno", fn.line),
                    col=getattr(first.node, "col_offset", 0),
                    message=(
                        f"memo read from {first.memo} without a snapshot "
                        "version check on the read path"
                    ),
                    hint=(
                        "compare a pinned version before trusting the entry "
                        "(e.g. call self._sync() or check "
                        "`self._pinned_version != graph.version`), or make "
                        "the entry self-validating against its inputs"
                    ),
                    symbol=fn.qualname,
                )
            )
        return findings
