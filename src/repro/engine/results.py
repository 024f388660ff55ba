"""Simulation outputs: per-step records, snapshots, and module times."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.engine.resilience import FailureReport, HealthWarning
from repro.gpu.kernel import VirtualDevice
from repro.obs.metrics import MetricsRegistry
from repro.util.timing import ModuleTimes


@dataclass
class StepRecord:
    """Diagnostics of one accepted time step.

    ``dt`` is the time step the accepted attempt actually integrated
    with (not the grown value carried into the next step).
    ``cg_iterations`` counts the accepted attempt only: the ``retries``
    rejected attempts before it are :class:`Attempt` records on
    :attr:`SimulationResult.rejected`.
    ``solver_rung`` is the highest fallback-ladder rung the step needed
    (0 = the configured preconditioner converged every solve); nonzero
    values flag solver degradation long before a run fails outright.
    """

    step: int
    dt: float
    cg_iterations: int
    open_close_iterations: int
    n_contacts: int
    n_offdiag_blocks: int
    max_displacement: float
    max_penetration: float
    retries: int
    solver_rung: int = 0
    oc_converged: bool = True


@dataclass(frozen=True)
class Attempt:
    """One loop-2 attempt at a step, as the step controller saw it.

    ``dt`` is the time step the attempt integrated with. ``cause`` is
    ``None`` for an accepted attempt, else why loop 2 threw it away (one
    of ``repro.engine.base.REJECTION_CAUSES``). ``changes`` holds each
    open–close sweep's significant-change count, so ``len(changes)`` is
    the attempt's sweeps. ``cg_iterations`` counts every rung of every
    solve, and ``rung`` is the highest fallback-ladder rung it needed.
    """

    step: int
    dt: float
    cause: str | None
    changes: tuple[int, ...]
    cg_iterations: int
    rung: int
    max_penetration: float


@dataclass
class SimulationResult:
    """Everything a run produced.

    Attributes
    ----------
    module_times:
        This run's seconds per pipeline module, measured wall clock and
        modelled device (:class:`~repro.util.timing.ModuleTimes`).
    device:
        The engine's virtual device ledger (every launch, accumulating
        across its runs).
    steps:
        One :class:`StepRecord` per accepted step.
    rejected:
        One :class:`Attempt` per attempt loop 2 threw away, in order
        (a rollback removes none).
    snapshots:
        ``(step, centroids)`` pairs recorded every ``snapshot_every``
        accepted steps (plus the final state).
    displacements:
        Total centroid displacement per block since the start.
    warnings:
        Health-guard warnings and rollback events emitted during the run.
    failure:
        ``None`` for a complete run. On a fatal failure under the
        ``on_failure="partial"`` policy, the :class:`FailureReport`
        describing why the run stopped early (the ``steps`` list then
        holds the accepted prefix).
    rollbacks:
        Checkpoint rollbacks performed during the run.
    contract_violations:
        Stage-contract violations caught during the run, keyed by
        pipeline stage name (empty when ``contract_level="off"`` or
        nothing tripped). Violations that triggered a successful
        rollback still appear here — detection is part of the record.
    metrics:
        The engine's :class:`~repro.obs.metrics.MetricsRegistry`
        (shared with the engine, accumulating across its runs);
        ``metrics.snapshot()`` is the JSON-safe view.
    """

    module_times: ModuleTimes
    device: VirtualDevice
    steps: list[StepRecord] = field(default_factory=list)
    rejected: list[Attempt] = field(default_factory=list)
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    displacements: np.ndarray | None = None
    warnings: list[HealthWarning] = field(default_factory=list)
    failure: FailureReport | None = None
    rollbacks: int = 0
    contract_violations: dict[str, int] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def is_partial(self) -> bool:
        """Whether the run stopped early with an attached failure report."""
        return self.failure is not None

    @property
    def max_solver_rung(self) -> int:
        """Highest fallback-ladder rung any step needed (0 = none)."""
        return max((s.solver_rung for s in self.steps), default=0)

    @property
    def total_cg_iterations(self) -> int:
        return sum(s.cg_iterations for s in self.steps)

    @property
    def mean_cg_iterations(self) -> float:
        return self.total_cg_iterations / max(1, self.n_steps)

    def max_total_displacement(self) -> float:
        """Largest centroid displacement any block accumulated."""
        if self.displacements is None:
            return 0.0
        return float(np.linalg.norm(self.displacements, axis=1).max())

    def modeled_module_times(self) -> dict[str, float]:
        """This run's modelled device seconds per pipeline module."""
        return self.module_times.modelled

    def to_csv(self, path) -> None:
        """Write the per-step records as CSV (one row per accepted step)."""
        import csv
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [f.name for f in dataclasses.fields(StepRecord)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for s in self.steps:
                writer.writerow([getattr(s, f) for f in fields])
