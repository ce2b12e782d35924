"""Plain-text reporting of experiment results.

Every experiment driver returns a list of row dicts; :class:`Table` renders
them in an aligned ASCII table so a benchmark run prints the same rows /
series the corresponding paper figure shows, next to the paper's qualitative
expectation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["Table", "format_value", "save_rows_json"]


def format_value(value: Any) -> str:
    """Render a cell value compactly (floats to 3 significant decimals)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


class Table:
    """An ordered collection of result rows with aligned text rendering."""

    def __init__(
        self,
        title: str,
        columns: Optional[Sequence[str]] = None,
        *,
        note: str = "",
    ) -> None:
        self.title = title
        self.note = note
        self._header: List[str] = list(columns) if columns else []
        self._rows: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------

    @property
    def columns(self) -> List[str]:
        """Column names in display order."""
        return list(self._header)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The raw row dicts (in insertion order)."""
        return list(self._rows)

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Append a row; new keys extend the column list in first-seen order."""
        for key in row:
            if key not in self._header:
                self._header.append(key)
        self._rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.add_row(row)

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------

    def render(self) -> str:
        """Render the table as aligned plain text."""
        header = self._header
        body = [[format_value(row.get(col, "")) for col in header] for row in self._rows]
        widths = [
            max(len(str(col)), *(len(line[index]) for line in body)) if body else len(str(col))
            for index, col in enumerate(header)
        ]
        lines = [f"== {self.title} =="]
        if self.note:
            lines.append(self.note)
        lines.append("  ".join(str(col).ljust(width) for col, width in zip(header, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for line in body:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table to stdout."""
        print(self.render())

    @classmethod
    def from_rows(
        cls, title: str, rows: Sequence[Mapping[str, Any]], *, note: str = ""
    ) -> "Table":
        """Build a table directly from a row list."""
        table = cls(title, note=note)
        table.extend(rows)
        return table


def save_rows_json(rows: Sequence[Mapping[str, Any]], path: Union[str, Path]) -> None:
    """Persist experiment rows to JSON (used by EXPERIMENTS.md regeneration)."""
    Path(path).write_text(json.dumps(list(rows), indent=2, default=str), encoding="utf-8")
