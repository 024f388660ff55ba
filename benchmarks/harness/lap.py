"""One lap of an engine workload, run in a fresh subprocess.

A lap is what a command-line user pays for one simulation: interpreter
start, ``import repro``, model build, engine construction,
``engine.run(steps)``, result summary. The parent starts one lap at a
time and takes medians over laps; this module is the child side. It
prints one JSON object (its last stdout line) and exits 0 even when the
engine failed — a failed run is data (``failed_ops``), not a crash.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time

from benchmarks.harness.calibration import Calibrator, pin_to_one_cpu
from benchmarks.harness.spans import SpanRecorder
from benchmarks.harness.workloads import (
    ENGINE_WORKLOADS,
    build_system,
    controls_for,
    make_engine,
)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _device_ledgers(engine) -> list:
    return [engine.device, *getattr(engine, "domain_devices", [])]


def _modelled(engine) -> tuple[float, dict]:
    """Modelled seconds of the run and their split by pipeline stage.

    For the domain preset the solve runs on per-domain ledgers in
    parallel, so it costs the slowest domain (the critical path); halo
    exchange is part of that domain's solve time.
    """
    by_stage = dict(engine.device.time_by_module())
    domains = getattr(engine, "domain_devices", [])
    if domains:
        by_stage["equation_solving"] = by_stage.get(
            "equation_solving", 0.0
        ) + max(dev.total_time for dev in domains)
    return sum(by_stage.values()), by_stage


def _gpu_counters(engine) -> dict:
    from repro.gpu.counters import KernelCounters

    total = KernelCounters()
    launches = 0
    for dev in _device_ledgers(engine):
        total += dev.total_counters
        launches += dev.launches()
    return {
        "launches": launches,
        "flops": total.flops,
        "global_bytes": total.total_global_bytes,
        "coalescing_eff": total.coalescing_efficiency(),
        "divergence_rate": total.divergence_rate,
    }


def _domain_facts(engine) -> dict:
    per_device = [dev.time_by_module() for dev in engine.domain_devices]
    return {
        "n_domains": engine.n_domains,
        "halo_bytes": engine.halo_bytes,
        "modelled_halo_s": max(
            t.get("halo_exchange", 0.0) for t in per_device
        ),
        "modelled_solve_s": max(
            t.get("equation_solving", 0.0) for t in per_device
        ),
        "cut_fraction": engine.partition_stats.cut_fraction,
        "imbalance": engine.partition_stats.imbalance,
    }


def engine_lap(args) -> dict:
    """Run one lap; ``args`` carries workload, seed, preset, steps,
    n_domains, traced and quick."""
    workload = ENGINE_WORKLOADS[args.workload]
    preset = args.preset or workload.preset
    steps = args.steps or workload.lap_steps(args.quick)
    ref_steps = min(steps, workload.reference_steps(args.quick))
    n_domains = args.n_domains or workload.n_domains
    rec = SpanRecorder()
    calibrator = Calibrator().start()
    with rec.span("lap", workload=workload.name, preset=preset) as lap_span:
        with rec.span("import"):
            import repro.engine.domain_engine
            import repro.engine.hybrid_engine
            import repro.engine.serial_engine
            import repro.meshing.slope_models  # noqa: F401
            from repro import SimulationError, Tracer
        with rec.span("model_build"):
            system = build_system(workload.name, args.seed, args.quick)
        with rec.span("engine_init"):
            tracer_epoch = time.time()
            tracer = Tracer(enabled=True) if args.traced else None
            engine = make_engine(
                preset, system, controls_for(workload.name),
                n_domains=n_domains, tracer=tracer,
            )
        t_ready = time.time()
        failure = None
        result = None
        with rec.span("engine.run", steps=steps) as run_span:
            try:
                result = engine.run(
                    steps, snapshot_every=ref_steps if ref_steps < steps else 0
                )
            except SimulationError as err:
                failure = f"{type(err).__name__}: {err}"
        run_wall = run_span["end"] - run_span["start"]
        out = {
            "workload": workload.name, "preset": preset, "seed": args.seed,
            "steps": steps, "ref_steps": ref_steps, "traced": bool(tracer),
            "n_blocks": int(system.n_blocks), "n_domains": n_domains,
            "t_ready": t_ready, "run_wall_s": run_wall, "failure": failure,
        }
        if result is not None:
            if result.failure is not None:
                out["failure"] = (
                    f"{result.failure.error}: {result.failure.message}"
                )
            out.update(_summarise(engine, result, steps, ref_steps))
        if tracer is not None and result is not None:
            out["trace"] = _trace_facts(
                rec, run_span, tracer, tracer_epoch, ref_steps
            )
    out["failed_ops"] = min(steps, (
        steps - out.get("steps_accepted", 0)
        + out.get("rollbacks", 0) + out.get("contract_violations", 0)
    ))
    calibrator.stop()
    out["slowdown"] = {
        "setup": calibrator.slowdown(lap_span["start"], t_ready),
        "run": calibrator.slowdown(run_span["start"], run_span["end"]),
        "lap": calibrator.slowdown(lap_span["start"], lap_span["end"]),
    }
    out["peak_rss_mb"] = peak_rss_mb()
    out["t_done"] = time.time()
    out["spans"] = rec.spans
    return out


def _summarise(engine, result, steps: int, ref_steps: int) -> dict:
    import numpy as np

    modelled_s, modelled_by_stage = _modelled(engine)
    snap = engine.metrics.snapshot()
    vertices = np.ascontiguousarray(engine.system.vertices)
    centroids_at_ref = next(
        (c for s, c in result.snapshots if s == ref_steps),
        result.snapshots[-1][1],
    )
    out = {
        "steps_accepted": result.n_steps,
        "step_retries": sum(s.retries for s in result.steps),
        "rollbacks": result.rollbacks,
        "contract_violations": sum(result.contract_violations.values()),
        "n_contacts": result.steps[-1].n_contacts if result.steps else 0,
        "first_dt": result.steps[0].dt if result.steps else 0.0,
        "modelled_s": modelled_s,
        "modelled_by_stage": modelled_by_stage,
        "stage_wall_s": dict(result.module_times.times),
        "cg_iterations": result.total_cg_iterations,
        "cg_solves": snap["histograms"]["cg.iterations"]["count"],
        "cg_iterations_all": snap["histograms"]["cg.iterations"]["sum"],
        "counters": snap["counters"],
        "vertices_abs_sum": float(np.abs(vertices).sum()),
        "vertices_sha256": hashlib.sha256(vertices.tobytes()).hexdigest(),
        "centroids_at_ref": centroids_at_ref.tolist(),
        "gpu": _gpu_counters(engine),
    }
    if hasattr(engine, "domain_devices"):
        out["domain"] = _domain_facts(engine)
    return out


def _trace_facts(rec, run_span, tracer, tracer_epoch, ref_steps) -> dict:
    """Attach the engine's own module spans under ``engine.run`` and
    pull out what only a traced lap knows."""
    for s in tracer.spans:
        if s.name == "step":
            continue
        start = tracer_epoch + s.start
        rec.add(s.name, start, start + s.wall_s, parent=run_span["id"],
                step=s.step, device_s=s.device_s)
    steps = tracer.step_spans()
    return {
        "module_summary": tracer.module_summary(),
        "first_step_wall_s": steps[0].wall_s if steps else 0.0,
        "orchestration_wall_s": rec.self_time(run_span["id"]),
        "prefix_device_s": sum(
            s.device_s for s in tracer.spans
            if s.name != "step" and s.step < ref_steps
        ),
    }


def main(args) -> int:
    if args.workload in ENGINE_WORKLOADS:
        # the service lap keeps every CPU for its two workers
        pin_to_one_cpu()
        out = engine_lap(args)
    else:
        from benchmarks.harness.service import service_lap

        out = service_lap(args)
    print(json.dumps(out))
    return 0
