"""Plain-text table rendering for benchmark reports.

The benchmark harness prints paper-vs-measured tables in the same row layout
as the paper's Tables I–III; this module does the formatting.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt(cell: object, precision: int) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 10 ** (precision + 2) or abs(cell) < 10 ** (-precision):
            return f"{cell:.{precision}e}"
        return f"{cell:.{precision}g}"
    return str(cell)


class Table:
    """An ASCII table with a title, a header row, and typed cells.

    Example
    -------
    >>> t = Table("Demo", ["name", "value"])
    >>> t.add_row(["x", 1.5])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(
        self,
        title: str,
        header: Sequence[str],
        *,
        precision: int = 4,
    ) -> None:
        if not header:
            raise ValueError("header must have at least one column")
        self.title = title
        self.header = [str(h) for h in header]
        self.rows: list[list[str]] = []
        self.precision = precision

    def add_row(self, row: Iterable[object]) -> None:
        """Append one row; floats are formatted with the table precision."""
        cells = [_fmt(c, self.precision) for c in row]
        if len(cells) != len(self.header):
            raise ValueError(
                f"row has {len(cells)} cells, header has {len(self.header)}"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Render the table to a string with aligned columns."""
        widths = [len(h) for h in self.header]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"

        def line(cells: Sequence[str]) -> str:
            return (
                "|"
                + "|".join(f" {c:<{w}} " for c, w in zip(cells, widths))
                + "|"
            )

        out = [self.title, sep, line(self.header), sep]
        out.extend(line(r) for r in self.rows)
        out.append(sep)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
