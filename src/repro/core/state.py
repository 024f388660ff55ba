"""Simulation control parameters — the knobs of the paper's Fig. 1 loops.

Loop 1 (time stepping), loop 2 (maximum-allowed-displacement control: any
block displacement beyond twice ``max_displacement_ratio * model_size``
halves the step and repeats it), loop 3 (open–close iteration). The
equation solver follows the paper: if PCG fails to converge in 200
iterations (:data:`repro.engine.base.CG_MAX_ITERATIONS`), the physical
time of the step is reduced, which enlarges the inertia diagonal and
restores conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Stage-contract checking levels: none, or every contract.
CONTRACT_LEVELS = ("off", "full")
#: The paper's three preconditioners, the names a run may give.
PRECONDITIONERS = ("bj", "ssor", "ilu")
#: What a run does with a failure it cannot recover from.
ON_FAILURE = ("raise", "partial")


@dataclass
class ResilienceControls:
    """Knobs of the resilience layer (:mod:`repro.engine.resilience`).

    The layer's fixed settings (rollback dt factor, health-guard
    thresholds and policies) are module constants there; it keeps one
    checkpoint, the newest.

    Attributes
    ----------
    checkpoint_every:
        Take a full-state checkpoint where a run starts and at every
        step number divisible by this (``0`` disables checkpointing —
        and with it rollback recovery).
    checkpoint_dir:
        If set, persist every checkpoint to this directory as
        ``checkpoint_<step>.npz`` with an integrity checksum.
    max_rollbacks:
        Fatal-failure rollbacks allowed per ``run()`` before giving up.
    on_failure:
        ``"raise"`` propagates the typed :class:`SimulationError`;
        ``"partial"`` returns the accepted prefix of the run as a
        partial result with an attached ``FailureReport``.
    """

    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    max_rollbacks: int = 3
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        # written so that a NaN fails too
        if not self.checkpoint_every >= 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if not self.max_rollbacks >= 0:
            raise ValueError(
                f"max_rollbacks must be >= 0, got {self.max_rollbacks}"
            )
        if self.on_failure not in ON_FAILURE:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE}, got "
                f"{self.on_failure!r}"
            )


@dataclass
class SimulationControls:
    """Control parameters for a DDA run.

    Attributes
    ----------
    time_step:
        Physical time per step ``dt`` [s] (paper: "usually less than
        0.0001 s" for the static case; our scaled models use larger
        steps at smaller stiffness).
    dynamic:
        ``True`` keeps velocities between steps (paper's Case 2);
        ``False`` zeroes them each step (static analysis, Case 1).
    gravity:
        Body acceleration [m/s^2], applied as ``(0, -gravity)``.
    max_displacement_ratio:
        Loop-2 bound: allowed per-step displacement as a fraction of the
        model's half-diagonal.
    penalty_scale:
        Contact spring stiffness as a multiple of (average Young's
        modulus x unit depth); DDA practice is 10–100x E. Fixed points
        use the same magnitude
        (:data:`repro.engine.physics.FIXED_POINT_PENALTY_SCALE`).
    preconditioner:
        ``"bj"`` (block Jacobi), ``"ssor"`` (SSOR approximate inverse)
        or ``"ilu"`` (ILU(0)).
    base_acceleration:
        Optional seismic input: a callable ``t -> (ax, ay)`` [m/s^2]
        evaluated at each step's start time and applied as an extra
        uniform body force (d'Alembert: shaking the ground by ``+a``
        loads every block by ``-rho a`` per unit area). ``None`` = no
        shaking.
    resilience:
        Checkpoint/rollback and solver-fallback knobs
        (:class:`ResilienceControls`).
    contract_level:
        Stage-contract checking level (:mod:`repro.engine.contracts`):
        ``"off"`` (default, zero overhead) or ``"full"`` (every
        contract at every stage boundary: invariant scans, residual
        verification, lost-contact cross-checks and polygon
        simplicity).
    """

    time_step: float = 1e-3
    dynamic: bool = False
    gravity: float = 9.81
    max_displacement_ratio: float = 0.01
    penalty_scale: float = 50.0
    preconditioner: str = "bj"
    base_acceleration: object = None
    resilience: ResilienceControls = field(default_factory=ResilienceControls)
    contract_level: str = "off"

    def __post_init__(self) -> None:
        # written so that a NaN fails too
        if not 0 < self.time_step < math.inf:
            raise ValueError(
                f"time_step must be finite and > 0, got {self.time_step}"
            )
        if self.gravity < 0:
            raise ValueError(f"gravity must be >= 0, got {self.gravity}")
        if not (0 < self.max_displacement_ratio <= 1):
            raise ValueError(
                "max_displacement_ratio must be in (0, 1], got "
                f"{self.max_displacement_ratio}"
            )
        if self.penalty_scale <= 0:
            raise ValueError("penalty_scale must be > 0")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(
                f"preconditioner must be one of {PRECONDITIONERS}, "
                f"got {self.preconditioner!r}"
            )
        if self.base_acceleration is not None and not callable(
            self.base_acceleration
        ):
            raise ValueError("base_acceleration must be callable or None")
        if not isinstance(self.resilience, ResilienceControls):
            raise ValueError(
                "resilience must be a ResilienceControls, got "
                f"{type(self.resilience).__name__}"
            )
        if self.contract_level not in CONTRACT_LEVELS:
            raise ValueError(
                f"contract_level must be one of {CONTRACT_LEVELS}, got "
                f"{self.contract_level!r}"
            )
