"""Experiment-table rendering.

Each experiment driver returns an :class:`ExperimentTable`; the harness
prints it (fixed-width, matching the rows EXPERIMENTS.md records) and the
shape tests assert on its cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

__all__ = ["ExperimentTable", "format_cell"]


def format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentTable:
    """One reproduced table/figure: id, title, headers, rows, notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def column(self, header: str) -> List[Any]:
        """All values of one column (for benchmark assertions)."""
        try:
            idx = list(self.headers).index(header)
        except ValueError:
            raise KeyError(f"no column {header!r} in {list(self.headers)}") from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        cells = [[format_cell(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_row(row: Sequence[str]) -> str:
            return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

        lines = [
            f"[{self.experiment_id}] {self.title}",
            fmt_row(list(self.headers)),
            fmt_row(["-" * w for w in widths]),
        ]
        lines += [fmt_row(row) for row in cells]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        header = "| " + " | ".join(self.headers) + " |"
        sep = "|" + "|".join("---" for _ in self.headers) + "|"
        rows = [
            "| " + " | ".join(format_cell(c) for c in row) + " |"
            for row in self.rows
        ]
        out = [f"**[{self.experiment_id}] {self.title}**", "", header, sep, *rows]
        for note in self.notes:
            out.append(f"\n_Note: {note}_")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
