"""``decode-boundary`` — public surfaces must not leak interned bitsets.

Inside the engine, match relations travel as Python-int bitsets over
*interned* node ids; they are only meaningful against one
``CompiledGraph``'s interning table.  The public surfaces —
``repro.api``, ``MatchResult``, and CLI output paths — must decode to
caller-space node ids before returning.  A raw bitset that escapes the
boundary is a correctness bug waiting for the first snapshot swap.

The rule is scoped to the public-surface modules and flags ``return`` /
``yield`` expressions in public (non-underscore) functions that
syntactically carry engine-internal bit values: names or attributes
ending in ``_bits``/``_bitset``, or calls to ``*_bits`` / ``*_compact``
helpers, whose results are interned-id bitsets by project convention.
Decode calls (:data:`_DECODE_NAMES`, including the
:func:`~repro.graph.compiled.select_members` kernel and ``bit_count``) and
bool-valued expressions (comparisons, ``not``) launder their operands.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.findings import Finding
from repro.analysis.model import FunctionModel, ModuleModel, call_name
from repro.analysis.registry import Checker, Project, register

__all__ = ["DecodeBoundaryChecker"]

#: Module-name prefixes that are public API surface.
_PUBLIC_PREFIXES = ("repro.api", "repro.cli", "repro.matching.match_result")

_BIT_SUFFIXES = ("_bits", "_bitset")
_BIT_CALL_SUFFIXES = ("_bits", "_bitset", "_compact")


def _is_public_module(module: ModuleModel) -> bool:
    return any(
        module.name == prefix or module.name.startswith(prefix + ".")
        for prefix in _PUBLIC_PREFIXES
    )


#: Calls that decode interned bits into caller-space values; anything
#: inside their arguments has been laundered and is safe to return.
#: ``select_members`` picks a table's entries (node ids, names) by bit;
#: ``bit_count`` turns a bitset into its size.
_DECODE_NAMES = frozenset(
    {
        "decode",
        "decode_bits",
        "bits_to_nodes",
        "node_of",
        "nodes_of",
        "len",
        "select_members",
        "bit_count",
    }
)


def _bit_carrier(expr: ast.AST) -> Optional[str]:
    """The offending identifier if *expr* carries a raw bitset value.

    Recurses manually instead of :func:`ast.walk` so a decode call acts
    as a boundary: ``compiled.decode(self._mat_bits[u])`` is fine — the
    bits never escape.
    """
    if isinstance(expr, ast.Compare) or (
        isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not)
    ):
        return None  # a bool, whatever it compared
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in _DECODE_NAMES:
            return None
        if name and name.endswith(_BIT_CALL_SUFFIXES):
            return f"{name}()"
    elif isinstance(expr, ast.Attribute):
        if expr.attr.endswith(_BIT_SUFFIXES):
            return expr.attr
    elif isinstance(expr, ast.Name):
        if expr.id.endswith(_BIT_SUFFIXES):
            return expr.id
    for child in ast.iter_child_nodes(expr):
        carrier = _bit_carrier(child)
        if carrier is not None:
            return carrier
    return None


def _is_public_function(fn: FunctionModel) -> bool:
    if fn.name.startswith("_") and not (
        fn.name.startswith("__") and fn.name.endswith("__")
    ):
        return False
    # Nested helpers inside a private function stay private.
    return not any(part.startswith("_") for part in fn.qualname.split(".")[:-1])


@register
class DecodeBoundaryChecker(Checker):
    rule = "decode-boundary"
    description = (
        "public API surfaces (repro.api, MatchResult, CLI) must not return "
        "raw interned-id bitsets; decode before the boundary"
    )

    def check(self, module: ModuleModel, project: Project) -> List[Finding]:
        if not _is_public_module(module):
            return []
        findings: List[Finding] = []
        for fn in module.iter_functions():
            if not _is_public_function(fn):
                continue
            for sub in fn.body_walk():
                value: Optional[ast.AST]
                if isinstance(sub, ast.Return):
                    value = sub.value
                elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    value = sub.value
                else:
                    continue
                if value is None:
                    continue
                carrier = _bit_carrier(value)
                if carrier is None:
                    continue
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=module.path,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=(
                            f"public function returns raw interned-id bit "
                            f"value ({carrier}); decode to node ids before "
                            "the API boundary"
                        ),
                        hint=(
                            "decode with the snapshot's interning table "
                            "(e.g. MatchResult.from_bits / "
                            "select_members) before returning"
                        ),
                        symbol=fn.qualname,
                    )
                )
        return findings
