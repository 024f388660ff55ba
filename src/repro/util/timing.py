"""The per-module time ledger.

The paper reports per-module times for the six pipeline stages (Tables II
and III) on two clocks. :class:`ModuleTimes` is one run's ledger of both:
measured wall-clock seconds and virtual-device modelled seconds.
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


def _zeros() -> dict[str, float]:
    return dict.fromkeys(PIPELINE_MODULES, 0.0)


@dataclass
class ModuleTimes:
    """One run's accumulated seconds per pipeline module, on both clocks.

    ``times`` holds the measured wall clock, ``modelled`` the
    virtual-device seconds (the critical path where a preset runs
    device ledgers in parallel). ``EngineBase._stage`` adds one
    measurement of each per stage invocation.
    """

    times: dict[str, float] = field(default_factory=_zeros)
    modelled: dict[str, float] = field(default_factory=_zeros)

    def add(self, module: str, wall: float, modelled: float) -> None:
        """Accumulate one stage invocation into ``module`` (must be a
        known module)."""
        if module not in self.times:
            raise KeyError(
                f"unknown pipeline module {module!r}; known: {PIPELINE_MODULES}"
            )
        self.times[module] += float(wall)
        self.modelled[module] += float(modelled)
