"""Spec-to-engine entry point shared by the CLI and the batch service.

A :class:`~repro.service.spec.JobSpec` (or anything duck-typed like it:
``python -m repro run`` passes its argparse namespace straight to
:func:`build_system_from_spec`, :func:`make_fault_injector` and
:func:`make_engine`) names a workload, an engine, and controls; this
module turns that into a ready engine and runs it — optionally resuming
from a previously persisted checkpoint, which is how a retried batch job
continues where its crashed predecessor stopped instead of recomputing
from step 0.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.chaos import FaultInjector
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.resilience import CheckpointCorrupt
from repro.engine.results import SimulationResult
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import K20, K40
from repro.io.batch_io import summarize_result
from repro.io.model_io import load_checkpoint, load_system
from repro.meshing.slope_models import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
)
from repro.util.timing import ModuleTimes


def build_system_from_spec(spec):
    """Build (or load) the :class:`BlockSystem` a spec names."""
    if getattr(spec, "load", None):
        return load_system(spec.load)
    if spec.model == "slope":
        return build_slope_model(joint_spacing=spec.size, seed=spec.seed)
    if spec.model == "rocks":
        return build_falling_rocks_model(n_rock_rows=3, n_rock_cols=8)
    if spec.model == "rubble":
        # deferred: ``scipy.spatial`` costs more to load than the rest
        # of this module's closure together
        from repro.meshing.voronoi import build_voronoi_rubble

        return build_voronoi_rubble(
            n_blocks=max(4, int(200.0 / spec.size)), seed=spec.seed
        )
    return build_brick_wall(rows=4, cols=6)


def controls_from_spec(
    spec, *, checkpoint_dir: str | Path | None = None
) -> SimulationControls:
    """Simulation controls for a spec (checkpoints go to the job dir)."""
    return SimulationControls(
        time_step=spec.time_step,
        dynamic=spec.dynamic,
        preconditioner=spec.preconditioner,
        contract_level=spec.contracts,
        resilience=ResilienceControls(
            checkpoint_every=spec.checkpoint_every,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            max_rollbacks=spec.max_rollbacks,
        ),
    )


def make_engine(spec, system, controls, fault_injector=None,
                tracer=None, metrics=None):
    """Instantiate the engine a spec names."""
    profile = K20 if spec.profile == "k20" else K40
    common = dict(fault_injector=fault_injector, tracer=tracer, metrics=metrics)
    if spec.engine == "serial":
        return SerialEngine(system, controls, **common)
    if spec.engine == "hybrid":
        return HybridEngine(system, controls, profile=profile, **common)
    if spec.engine == "domain":
        return DomainEngine(
            system, controls, n_domains=getattr(spec, "n_domains", 2),
            **common,
        )
    return GpuEngine(system, controls, profile=profile, **common)


def make_fault_injector(spec):
    """Chaos injector for a spec's fault knobs (``None`` when clean)."""
    if getattr(spec, "inject_faults", None) is None and not getattr(
        spec, "fault_names", None
    ):
        return None
    return FaultInjector(
        faults=list(spec.fault_names) if spec.fault_names else None,
        seed=spec.inject_faults or 0,
        start_step=spec.fault_step,
    )


def newest_valid_checkpoint(checkpoint_dir: str | Path):
    """Newest loadable checkpoint in a directory, or ``None``.

    Corrupt files (failed integrity check, truncated write from a dying
    worker) are skipped, so a retry falls back to the newest checkpoint
    that *survives* rather than giving up.
    """
    checkpoint_dir = Path(checkpoint_dir)
    if not checkpoint_dir.is_dir():
        return None
    paths = sorted(
        checkpoint_dir.glob("checkpoint_*.npz"),
        key=lambda p: int(p.stem.split("_")[1]),
        reverse=True,
    )
    for path in paths:
        try:
            return load_checkpoint(path)
        except CheckpointCorrupt:
            continue
    return None


def execute_spec(
    spec,
    *,
    checkpoint_dir: str | Path | None = None,
    resume_checkpoint=None,
    resume_offset: int = 0,
    fault_injector=None,
    tracer=None,
    metrics=None,
):
    """Run a spec end to end; returns ``(result, engine, summary)``.

    With ``resume_checkpoint`` set, the engine restores it and
    integrates only the remaining ``spec.steps - resume_offset`` steps
    (``resume_offset`` is the checkpoint's *global* accepted-step index
    — each ``engine.run`` numbers its own steps from 0, so the caller
    tracks the offset across attempts). The returned summary dict (see
    :func:`repro.io.batch_io.summarize_result`) records
    ``resumed_from`` so callers can tell a fresh run from a
    continuation. Engine failures propagate as
    :class:`~repro.engine.resilience.SimulationError` — callers decide
    the retry policy.
    """
    if fault_injector is None:
        fault_injector = make_fault_injector(spec)
    system = build_system_from_spec(spec)
    controls = controls_from_spec(spec, checkpoint_dir=checkpoint_dir)
    engine = make_engine(
        spec, system, controls, fault_injector=fault_injector,
        tracer=tracer, metrics=metrics,
    )
    resumed_from = 0
    if resume_checkpoint is not None:
        engine.restore_checkpoint(resume_checkpoint)
        resumed_from = resume_offset
    remaining = spec.steps - resumed_from
    start = time.perf_counter()
    if remaining > 0:
        result = engine.run(steps=remaining)
    else:  # a checkpoint already covers the whole run
        result = SimulationResult(
            module_times=ModuleTimes(), device=engine.device,
            metrics=engine.metrics,
        )
    summary = summarize_result(
        result,
        engine=spec.engine,
        wall_seconds=time.perf_counter() - start,
        resumed_from=resumed_from,
    )
    return result, engine, summary
