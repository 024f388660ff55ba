"""The per-module time ledger.

The paper reports per-module times for the six pipeline stages (Tables II
and III). :class:`ModuleTimes` is the ledger both engines fill in — once
with real wall-clock seconds and once with virtual-device modelled seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Canonical module names, in the paper's Table II/III row order.
PIPELINE_MODULES = (
    "contact_detection",
    "diagonal_matrix_building",
    "nondiagonal_matrix_building",
    "equation_solving",
    "interpenetration_checking",
    "data_updating",
)


@dataclass
class ModuleTimes:
    """Accumulated per-pipeline-module times, in seconds.

    Two instances are kept per run: measured wall-clock and modelled
    device time (the virtual GPU / CPU cost model).
    """

    times: dict[str, float] = field(
        default_factory=lambda: {m: 0.0 for m in PIPELINE_MODULES}
    )

    def add(self, module: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``module`` (must be a known module)."""
        if module not in self.times:
            raise KeyError(
                f"unknown pipeline module {module!r}; known: {PIPELINE_MODULES}"
            )
        self.times[module] += float(seconds)

    @property
    def total(self) -> float:
        """Sum over all modules."""
        return sum(self.times.values())

    def as_rows(self) -> list[tuple[str, float]]:
        """Rows in the paper's table order plus a total row."""
        rows = [(m, self.times[m]) for m in PIPELINE_MODULES]
        rows.append(("total", self.total))
        return rows
