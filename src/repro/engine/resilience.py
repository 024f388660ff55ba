"""Resilience layer: failure taxonomy, health guards, checkpoint/rollback.

The paper's workloads are long campaigns — Case 1 runs 40,000 time steps
and Case 2 runs 80,000 — and multi-hour runs *will* hit degenerate
states: contact springs turning the system indefinite, open–close
oscillation that never settles, kinetic energy injected by a penalty
blow-up. This module gives every engine a shared vocabulary for those
failures and the machinery to survive them:

* a typed exception hierarchy (:class:`SimulationError` and subclasses)
  carrying a :class:`StepContext` with the step index, time step, retry
  count, CG residual history, and penetration at the point of failure;
* a :func:`solver_ladder` describing the escalation sequence the engine
  walks through *before* burning a loop-2 dt-halving (configured
  preconditioner → stronger preconditioner → cold restart);
* a :class:`HealthMonitor` running per-step guards, each with one fixed
  response: a NaN/Inf state raises a recoverable
  :class:`NumericalBlowup` (the run loop rolls back), while deep
  penetration, a kinetic-energy blow-up and an open–close oscillation
  streak are recorded as :class:`HealthWarning` s;
* :class:`CheckpointManager` — periodic full-state snapshots
  (:class:`repro.engine.physics.Checkpoint`) the engine rolls back to
  when a fatal failure strikes, kept in memory and optionally persisted
  via :mod:`repro.io.model_io` with an integrity checksum.

All exceptions extend :class:`RuntimeError`, so code written against the
old bare ``RuntimeError`` contract keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.blocks import BlockSystem
from repro.engine.physics import Checkpoint, kinetic_energy
from repro.io.model_io import load_checkpoint, save_checkpoint
from repro.solvers.preconditioners import stronger_preconditioner

#: A rollback restores the checkpoint's ``dt`` times this, so the
#: deterministic retry takes a different (safer) trajectory.
ROLLBACK_DT_FACTOR = 0.5

#: Penetration guard threshold — and the ``full`` contract's penetration
#: bound — as a multiple of the engine's contact threshold.
PENETRATION_FACTOR = 10.0

#: Energy guard: warns when kinetic energy grows by more than this
#: factor in one accepted step (and exceeds the model's energy scale).
ENERGY_FACTOR = 100.0

#: Oscillation guard: warns after this many consecutive accepted steps
#: whose open–close iteration hit the loop-3 cap.
OSCILLATION_STREAK = 5

# ----------------------------------------------------------------------
# failure context and taxonomy
# ----------------------------------------------------------------------


@dataclass
class StepContext:
    """Where and how a step failed.

    Attributes
    ----------
    step:
        Loop-1 step index (accepted-step numbering).
    dt:
        Physical time step at the point of failure [s].
    retries:
        Loop-2 dt-halvings already burned on this step.
    cg_residuals:
        Relative-residual history of the last PCG attempt.
    max_penetration:
        Deepest interpenetration observed in the failing attempt [m].
    cause:
        Machine-readable cause tag, e.g. ``"cg_breakdown"``,
        ``"cg_non_convergence"``, ``"max_displacement"``,
        ``"open_close_oscillation"``, or a health-guard name.
    """

    step: int
    dt: float
    retries: int = 0
    cg_residuals: list[float] = field(default_factory=list)
    max_penetration: float = 0.0
    cause: str = ""

    def describe(self) -> str:
        tail = (
            f", last residual {self.cg_residuals[-1]:.3e}"
            if self.cg_residuals
            else ""
        )
        return (
            f"step {self.step} (dt={self.dt:.3e} s, {self.retries} retries, "
            f"max penetration {self.max_penetration:.3e} m, "
            f"cause={self.cause or 'unknown'}{tail})"
        )


class SimulationError(RuntimeError):
    """Base of all structured engine failures.

    Subclasses carry a :class:`StepContext`. ``recoverable`` tells the
    run loop whether rolling back to a checkpoint and retrying at a
    smaller dt is a sensible response.
    """

    recoverable: bool = True

    def __init__(self, message: str, context: StepContext | None = None) -> None:
        super().__init__(message)
        self.context = context or StepContext(step=-1, dt=0.0)


class StepRejected(SimulationError):
    """Loop 2 exhausted its dt-halvings without an acceptable step."""


class SolverBreakdown(SimulationError):
    """PCG broke down (``p^T A p <= 0``) on every rung at every dt.

    The system matrix lost positive-definiteness along the search
    direction — usually a sign of a pathological contact-spring
    configuration that shrinking the time step could not cure.
    """


class NumericalBlowup(SimulationError):
    """The state went non-finite after data updating (guard ``finite``).

    Recoverable: the run loop rolls back to the last checkpoint.
    """

    def __init__(
        self,
        message: str,
        context: StepContext | None = None,
        *,
        guard: str = "",
    ) -> None:
        super().__init__(message, context)
        self.guard = guard


class CheckpointCorrupt(SimulationError):
    """A persisted checkpoint failed its integrity check."""

    recoverable = False


# ----------------------------------------------------------------------
# warnings and the failure report
# ----------------------------------------------------------------------


@dataclass
class HealthWarning:
    """One non-fatal health event emitted during a run."""

    step: int
    guard: str
    message: str
    value: float = 0.0


@dataclass
class FailureReport:
    """Attached to a partial :class:`SimulationResult` instead of a raise.

    Attributes
    ----------
    error:
        Exception class name (``"StepRejected"``, ``"NumericalBlowup"``...).
    message:
        The exception message.
    context:
        The :class:`StepContext` at the fatal failure.
    steps_completed:
        Accepted steps surviving in the (partial) result.
    rollbacks:
        Checkpoint rollbacks performed before giving up.
    """

    error: str
    message: str
    context: StepContext | None = None
    steps_completed: int = 0
    rollbacks: int = 0

    def summary(self) -> str:
        where = f" at {self.context.describe()}" if self.context else ""
        return (
            f"{self.error}{where}: {self.message} "
            f"[{self.steps_completed} steps kept, "
            f"{self.rollbacks} rollbacks spent]"
        )


# ----------------------------------------------------------------------
# solver fallback ladder
# ----------------------------------------------------------------------


def solver_ladder(preconditioner: str) -> list[tuple[str, bool]]:
    """The escalation rungs tried before a loop-2 dt-halving.

    Returns ``(preconditioner_name, warm_start)`` pairs:

    * rung 0 — the configured preconditioner, warm-started from the
      sweep before's solution (a step's first sweep: the step before's);
    * rung 1 — the next-stronger preconditioner from
      :func:`repro.solvers.preconditioners.stronger_preconditioner`;
    * rung 2 — the stronger preconditioner with a cold start
      (``x0=None``), discarding a possibly-poisoned warm start.
    """
    ladder = [(preconditioner, True)]
    stronger = stronger_preconditioner(preconditioner)
    if stronger != preconditioner:
        ladder.append((stronger, True))
    ladder.append((stronger, False))
    return ladder


# ----------------------------------------------------------------------
# health monitoring
# ----------------------------------------------------------------------


class HealthMonitor:
    """Per-step guards run after the data-updating module, each with
    one fixed response:

    * ``finite`` — NaN/Inf in vertices, velocities or stresses: raises a
      recoverable :class:`NumericalBlowup`, so the run loop rolls back;
    * ``penetration`` — max penetration above :data:`PENETRATION_FACTOR`
      × the contact threshold: warns;
    * ``energy`` — kinetic energy ``½ vᵀ M v`` above
      :data:`ENERGY_FACTOR` × the previous step's and above
      ``energy_scale``: warns;
    * ``oscillation`` — :data:`OSCILLATION_STREAK` consecutive accepted
      steps whose open–close iteration hit the loop-3 cap: warns.

    A warning is a :class:`HealthWarning`; the run continues.
    """

    def __init__(
        self, *, contact_threshold: float, energy_scale: float
    ) -> None:
        self.contact_threshold = contact_threshold
        #: absolute kinetic-energy floor below which the blow-up guard
        #: stays silent (settling noise is not a blow-up)
        self.energy_scale = energy_scale
        self.reset()

    def reset(self) -> None:
        """Clear cross-step guard state (after a rollback or a new run)."""
        self._prev_ke: float | None = None
        self._unsettled_steps = 0

    # ------------------------------------------------------------------
    def after_step(self, system: BlockSystem, record) -> list[HealthWarning]:
        """Run every guard against the just-accepted step.

        ``record`` is the step's :class:`~repro.engine.results.StepRecord`.
        Returns the warnings emitted; raises :class:`NumericalBlowup` on
        a non-finite state.
        """
        if not (
            np.isfinite(system.vertices).all()
            and np.isfinite(system.velocities).all()
            and np.isfinite(system.stresses).all()
        ):
            raise NumericalBlowup(
                "health guard 'finite': non-finite values in "
                "vertices/velocities/stresses",
                StepContext(
                    step=record.step, dt=record.dt, retries=record.retries,
                    max_penetration=record.max_penetration, cause="finite",
                ),
                guard="finite",
            )
        warnings: list[HealthWarning] = []

        def warn(guard: str, message: str, value: float) -> None:
            warnings.append(HealthWarning(
                step=record.step, guard=guard, message=message, value=value,
            ))

        limit = PENETRATION_FACTOR * self.contact_threshold
        if record.max_penetration > limit:
            warn(
                "penetration",
                f"max penetration {record.max_penetration:.3e} m exceeds "
                f"{PENETRATION_FACTOR:g} x contact threshold ({limit:.3e} m)",
                record.max_penetration,
            )

        ke = kinetic_energy(system)
        if self._prev_ke is not None:
            if ke > ENERGY_FACTOR * self._prev_ke and ke > self.energy_scale:
                warn(
                    "energy",
                    f"kinetic energy jumped {ke / max(self._prev_ke, 1e-300):.1f}x "
                    f"in one step ({self._prev_ke:.3e} -> {ke:.3e} J)",
                    ke,
                )
        if np.isfinite(ke):
            self._prev_ke = ke

        if record.oc_converged:
            self._unsettled_steps = 0
        else:
            self._unsettled_steps += 1
            if self._unsettled_steps >= OSCILLATION_STREAK:
                streak = self._unsettled_steps
                self._unsettled_steps = 0
                warn(
                    "oscillation",
                    f"open-close iteration failed to settle for "
                    f"{streak} consecutive accepted steps",
                    float(streak),
                )
        return warnings


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


class CheckpointManager:
    """The newest checkpoint, kept in memory and optionally persisted.

    A rollback restores :attr:`latest`; an older one is never read, so
    a new checkpoint replaces it. ``persist_dir`` writes every
    checkpoint through :func:`repro.io.model_io.save_checkpoint` (npz +
    SHA-256 integrity checksum) as ``checkpoint_<step>.npz``, so an
    external supervisor can restart a killed process
    (:func:`newest_checkpoint`).
    """

    def __init__(self, *, persist_dir=None) -> None:
        self.persist_dir = persist_dir
        self.latest: Checkpoint | None = None

    def take(self, engine) -> Checkpoint:
        """Capture and retain a checkpoint of ``engine``."""
        self.latest = cp = engine.checkpoint()
        if self.persist_dir is not None:
            save_checkpoint(cp, Path(self.persist_dir) / f"checkpoint_{cp.step:08d}")
        return cp


def newest_checkpoint(root, before: int) -> Checkpoint | None:
    """The newest checkpoint short of step ``before`` that loads, among
    those :class:`CheckpointManager` persisted anywhere under ``root``;
    ``None`` if there is none. A corrupt file (failed integrity check,
    truncated write from a dying process) is skipped for the next
    newest."""
    found = sorted(
        (int(path.stem.split("_")[1]), path)
        for path in Path(root).rglob("checkpoint_*.npz")
    )
    for step, path in reversed(found):
        if step < before:
            try:
                return load_checkpoint(path)
            except CheckpointCorrupt:
                continue
    return None
