"""The DDA pipeline and its four presets.

:class:`~repro.engine.base.EngineBase` owns the paper's three nested
loops, the resilience layer and the six stage bodies; a preset is a
:class:`~repro.engine.base.Charges` table (what each stage records) and
a device profile, and the domain preset adds the solver hook
``_solver_operand`` (what the one PCG loop iterates over):

* :class:`~repro.engine.serial_engine.SerialEngine` — the paper's Fig. 1:
  every stage charged as a single-core loop on the E5620 CPU profile.
* :class:`~repro.engine.gpu_engine.GpuEngine` — the paper's Fig. 2: the
  restructured data-classification pipeline, every kernel recorded on a
  virtual K20/K40.
* :class:`~repro.engine.hybrid_engine.HybridEngine` — the ref-[10]
  CPU/GPU split with PCIe transfers metered.
* :class:`~repro.engine.domain_engine.DomainEngine` — the serial preset
  with the solve distributed across per-domain device ledgers.

All four run the same vectorised NumPy numerics (`repro.engine.physics`,
one assembler, one open–close driver, one CG loop) and produce
bit-equal step records and vertices — the pipeline-equivalence property
the paper relies on when comparing runtimes; they differ in what they
charge. The pure-Python loops of the original serial code survive as
test oracles (``tests/engine/oracles.py``,
``tests/contact/broad_phase_oracle.py``).
"""

from repro.engine.physics import (
    diagonal_system,
    contact_system,
)
from repro.contact.open_close import StateUpdate
from repro.engine.resilience import (
    Checkpoint,
    CheckpointCorrupt,
    CheckpointManager,
    FailureReport,
    HealthMonitor,
    HealthWarning,
    NumericalBlowup,
    SimulationError,
    SolverBreakdown,
    StepContext,
    StepRejected,
    solver_ladder,
)
from repro.engine.contracts import (
    CONTRACT_LEVELS,
    ContractViolation,
    StageContracts,
)
from repro.engine.results import SimulationResult, StepRecord
from repro.engine.serial_engine import SerialEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine

__all__ = [
    "HybridEngine",
    "diagonal_system",
    "contact_system",
    "StateUpdate",
    "SimulationResult",
    "StepRecord",
    "SerialEngine",
    "GpuEngine",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointManager",
    "FailureReport",
    "HealthMonitor",
    "HealthWarning",
    "NumericalBlowup",
    "SimulationError",
    "SolverBreakdown",
    "StepContext",
    "StepRejected",
    "solver_ladder",
    "CONTRACT_LEVELS",
    "ContractViolation",
    "StageContracts",
]
