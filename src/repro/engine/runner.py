"""Spec-to-engine entry point shared by the CLI and the batch service.

A :class:`~repro.service.spec.JobSpec` names a workload, an engine, and
controls; :func:`execute_spec` turns it into a ready engine and runs it
— optionally resuming from a previously persisted checkpoint, which is
how a retried batch job continues where its crashed predecessor stopped
instead of recomputing from step 0. ``python -m repro run`` passes its
argparse namespace instead: its dests are the JobSpec field names
(:func:`repro.service.spec.add_run_options`), plus the run-only
``n_domains``.
"""

from __future__ import annotations

import time

from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import K20, K40
from repro.io.batch_io import summarize_result
from repro.io.model_io import load_system
from repro.meshing.slope_models import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
)

#: ``--model`` values: the workloads :func:`build_system_from_spec` builds.
MODELS = ("slope", "rocks", "wall", "rubble")
#: ``--engine`` values a job spec may name; ``repro run`` adds ``domain``.
ENGINES = ("gpu", "serial", "hybrid")
RUN_ENGINES = ENGINES + ("domain",)
#: ``--profile`` values and the device profile each names.
PROFILES = {"k40": K40, "k20": K20}


def build_system_from_spec(spec):
    """Build (or load) the :class:`BlockSystem` a spec names."""
    if spec.load:
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


def controls_from_spec(spec, **resilience) -> SimulationControls:
    """The controls a spec names (building them is how a ``JobSpec``
    checks its control fields); ``resilience`` sets the
    :class:`ResilienceControls` fields a spec does not carry."""
    return SimulationControls(
        time_step=spec.time_step,
        dynamic=spec.dynamic,
        preconditioner=spec.preconditioner,
        contract_level=spec.contracts,
        resilience=ResilienceControls(
            checkpoint_every=spec.checkpoint_every,
            max_rollbacks=spec.max_rollbacks,
            **resilience,
        ),
    )


def make_engine(spec, system, controls, fault_injector=None,
                tracer=None, metrics=None):
    """Instantiate the engine a spec names."""
    common = dict(fault_injector=fault_injector, tracer=tracer, metrics=metrics)
    if spec.engine == "serial":
        return SerialEngine(system, controls, **common)
    if spec.engine == "domain":
        return DomainEngine(
            system, controls, n_domains=getattr(spec, "n_domains", 2),
            **common,
        )
    preset = HybridEngine if spec.engine == "hybrid" else GpuEngine
    return preset(system, controls, profile=PROFILES[spec.profile], **common)


def execute_spec(
    spec,
    *,
    resilience: dict | None = None,
    resume_checkpoint=None,
    fault_injector=None,
    tracer=None,
    metrics=None,
):
    """Run a spec end to end; returns ``(result, engine, summary)``.

    ``resilience`` goes to :func:`controls_from_spec` (a worker's
    ``checkpoint_dir``; ``repro run``'s two run-only resilience flags,
    ``checkpoint_dir`` and ``on_failure``). With ``resume_checkpoint``
    set (its step below ``spec.steps``), the engine restores it, step
    count included, and integrates the remaining steps. The returned
    summary dict (see :func:`repro.io.batch_io.summarize_result`)
    records ``resumed_from``, the checkpoint's step (0 for a fresh
    run). ``fault_injector`` is the engines' stage-output seam
    (a batch worker's kill switch). Engine failures propagate as
    :class:`~repro.engine.resilience.SimulationError` — callers decide
    the retry policy.
    """
    system = build_system_from_spec(spec)
    controls = controls_from_spec(spec, **(resilience or {}))
    engine = make_engine(
        spec, system, controls, fault_injector=fault_injector,
        tracer=tracer, metrics=metrics,
    )
    if resume_checkpoint is not None:
        engine.restore_checkpoint(resume_checkpoint)
    resumed_from = engine.step
    start = time.perf_counter()
    result = engine.run(steps=spec.steps - resumed_from)
    summary = summarize_result(
        result,
        engine=spec.engine,
        wall_seconds=time.perf_counter() - start,
        resumed_from=resumed_from,
    )
    return result, engine, summary
