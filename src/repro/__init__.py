"""GPU-pipeline Discontinuous Deformation Analysis (DDA) reproduction.

This package reproduces *"Architecting the Discontinuous Deformation
Analysis Method Pipeline on the GPU"* (Xiao et al., 2017) in pure Python:

* :mod:`repro.gpu` — a virtual GPU substrate (device profiles, SIMT warp
  model, memory coalescing / bank-conflict model, perf counters) standing in
  for the paper's Tesla K20/K40 hardware,
* :mod:`repro.primitives` — GPU data-parallel primitives (scan, radix sort,
  stream compaction, sorted search) the paper's pipeline is built from,
* :mod:`repro.spmv` — the paper's HSBCSR sparse block-symmetric SpMV plus
  CSR / BCSR reference formats,
* :mod:`repro.solvers` — PCG with Block-Jacobi, SSOR approximate-inverse and
  ILU(0) preconditioners,
* :mod:`repro.core`, :mod:`repro.assembly`, :mod:`repro.contact`,
  :mod:`repro.engine` — the full 2-D DDA method (Shi, 1988): block
  kinematics, stiffness assembly, contact detection, open–close iteration,
  and the two pipelines (serial Fig-1 and GPU Fig-2),
* :mod:`repro.meshing` — joint-set block cutting and the slope /
  falling-rock workload generators used by the paper's two cases.

Quickstart::

    from repro import build_slope_model, GpuEngine, SimulationControls

    system = build_slope_model(joint_spacing=5.0, seed=0)
    engine = GpuEngine(system, SimulationControls(time_step=1e-3))
    result = engine.run(steps=50)
    print(result.module_times)
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

# Lazy exports (PEP 562): importing `repro` stays cheap, and subpackages
# load only when their symbols are touched.
_EXPORTS = {
    "Block": "repro.core.blocks",
    "BlockSystem": "repro.core.blocks",
    "BlockMaterial": "repro.core.materials",
    "JointMaterial": "repro.core.materials",
    "SimulationControls": "repro.core.state",
    "ResilienceControls": "repro.core.state",
    "SimulationError": "repro.engine.resilience",
    "StepRejected": "repro.engine.resilience",
    "SolverBreakdown": "repro.engine.resilience",
    "NumericalBlowup": "repro.engine.resilience",
    "CheckpointCorrupt": "repro.engine.resilience",
    "FailureReport": "repro.engine.resilience",
    "Checkpoint": "repro.engine.physics",
    "ContractViolation": "repro.engine.contracts",
    "StageContracts": "repro.engine.contracts",
    "Tolerances": "repro.geometry.tolerances",
    "ModelValidationError": "repro.util.validation",
    "save_checkpoint": "repro.io.model_io",
    "load_checkpoint": "repro.io.model_io",
    "SerialEngine": "repro.engine.serial_engine",
    "GpuEngine": "repro.engine.gpu_engine",
    "DeviceProfile": "repro.gpu.device",
    "K20": "repro.gpu.device",
    "K40": "repro.gpu.device",
    "E5620": "repro.gpu.device",
    "VirtualDevice": "repro.gpu.kernel",
    "build_slope_model": "repro.meshing.slope_models",
    "build_falling_rocks_model": "repro.meshing.slope_models",
    "build_voronoi_rubble": "repro.meshing.voronoi",
    "HybridEngine": "repro.engine.hybrid_engine",
    "render_system": "repro.io.ascii_art",
    "save_system": "repro.io.model_io",
    "load_system": "repro.io.model_io",
    "Tracer": "repro.obs.tracer",
    "SpanRecord": "repro.obs.tracer",
    "MetricsRegistry": "repro.obs.metrics",
    "merge_snapshots": "repro.obs.metrics",
    "render_snapshot": "repro.obs.metrics",
    "BatchClient": "repro.service",
    "JobSpec": "repro.service",
    "JobRecord": "repro.service",
    "JobState": "repro.service",
    "JobQueue": "repro.service",
    "ResultStore": "repro.service",
    "WorkerPool": "repro.service",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover - static typing aid only
    from repro.core.blocks import Block, BlockSystem
    from repro.core.materials import BlockMaterial, JointMaterial
    from repro.core.state import SimulationControls
    from repro.engine.serial_engine import SerialEngine
    from repro.engine.gpu_engine import GpuEngine
    from repro.gpu.device import DeviceProfile, K20, K40, E5620
    from repro.gpu.kernel import VirtualDevice
    from repro.meshing.slope_models import (
        build_slope_model,
        build_falling_rocks_model,
    )
