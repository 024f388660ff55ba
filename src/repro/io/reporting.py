"""Paper-vs-measured experiment reports.

Every benchmark prints (and optionally writes to ``results/``) a
:class:`ComparisonReport`: the paper's reported value next to the value
this reproduction measured, with the ratio, so EXPERIMENTS.md rows can be
regenerated mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.util.tables import Table


@dataclass
class ComparisonReport:
    """A named experiment with paper-vs-measured rows."""

    experiment: str
    description: str
    rows: list[tuple[str, float | str, float | str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, paper: float | str, measured: float | str) -> None:
        """Append one comparison row."""
        self.rows.append((label, paper, measured))

    def note(self, text: str) -> None:
        """Append a free-form caveat (scaling, substitution, etc.)."""
        self.notes.append(text)

    def to_table(self) -> Table:
        t = Table(
            f"{self.experiment} — {self.description}",
            ["quantity", "paper", "measured", "ratio"],
        )
        for label, paper, measured in self.rows:
            ratio: object = ""
            if isinstance(paper, (int, float)) and isinstance(measured, (int, float)):
                if paper not in (0, 0.0):
                    ratio = float(measured) / float(paper)
            t.add_row([label, paper, measured, ratio])
        return t

    def render(self) -> str:
        out = [self.to_table().render()]
        for n in self.notes:
            out.append(f"  note: {n}")
        return "\n".join(out)

    def write(self, directory: str | Path = "results") -> Path:
        """Write the rendered report under ``directory`` and return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        slug = (
            self.experiment.lower().replace(" ", "_").replace("/", "-")
        )
        path = directory / f"{slug}.txt"
        path.write_text(self.render() + "\n")
        return path
