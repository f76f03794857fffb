"""Shared experiment-harness utilities: aggregation and table formatting."""

import math
from dataclasses import dataclass, field


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Table:
    """A simple column-aligned text table (the bench harness's output)."""

    title: str
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._fmt(cell) for cell in row])

    @staticmethod
    def _fmt(cell) -> str:
        if isinstance(cell, float):
            if cell and (abs(cell) < 1e-3 or abs(cell) >= 1e5):
                return f"{cell:.3e}"
            return f"{cell:,.3f}"
        return str(cell)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.rjust(w) for c, w in zip(self.columns, widths)))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def compare_line(label: str, measured: float, paper: float, unit: str = "") -> str:
    """One `measured vs paper` comparison line."""
    ratio = measured / paper if paper else float("inf")
    return (
        f"{label}: measured {measured:,.3g}{unit} vs paper {paper:,.3g}{unit} "
        f"(ratio {ratio:.2f})"
    )
