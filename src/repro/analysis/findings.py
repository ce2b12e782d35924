"""Structured findings emitted by the checkers.

A :class:`Finding` pins a rule violation to ``file:line`` with the rule id,
a one-line message, and a fix hint — enough for a human to act on from the
terminal and for tooling to consume from ``repro lint --format json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""
    symbol: str = ""
    col: int = 0
    #: Extra machine-readable context (kept JSON-friendly).
    extra: Dict[str, object] = field(default_factory=dict, compare=False)

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def format(self, *, color: bool = False) -> str:
        location = f"{self.path}:{self.line}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        text = f"{location}: {self.rule}: {self.message}{symbol}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.hint:
            obj["hint"] = self.hint
        if self.symbol:
            obj["symbol"] = self.symbol
        if self.extra:
            obj["extra"] = self.extra
        return obj

    def with_path(self, path: str) -> "Finding":
        """The same finding re-anchored at *path* (used for display roots)."""
        return Finding(
            rule=self.rule,
            path=path,
            line=self.line,
            message=self.message,
            hint=self.hint,
            symbol=self.symbol,
            col=self.col,
            extra=self.extra,
        )


def suppression_finding(path: str, line: int, rules: str) -> Finding:
    """The meta-finding for a suppression that carries no justification."""
    return Finding(
        rule="suppression",
        path=path,
        line=line,
        message=(
            f"suppression of [{rules}] without a justification; "
            "append `-- <reason>` to the ignore comment"
        ),
        hint="write `# repro: ignore[rule] -- why this is sound`",
    )


#: Optional severity ordering used only for display grouping.
RULE_ORDER = (
    "parse-error",
    "version-guard",
    "patch-listener",
    "decode-boundary",
    "suppression",
)


def rule_rank(rule: str) -> int:
    try:
        return RULE_ORDER.index(rule)
    except ValueError:
        return len(RULE_ORDER)
