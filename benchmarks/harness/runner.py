"""Parent side of the laps: spawn one at a time, aggregate, check.

Why laps: on the 2-core sandbox the same deterministic 1089-block lap
took 8.1-16.0 s (per-lap cv 0.11-0.18, slow regimes of seconds to
minutes; user CPU moves with wall, so it is the machine). A wall-clock
metric is therefore never one run: every workload runs at least
``MIN_LAPS`` identical laps, each a fresh subprocess, one process at a
time, round-robin across the workloads measured together (a slow regime
lands on all of them), BLAS pinned to one thread. The metric is the
median over laps of the calibrated seconds (see
:mod:`benchmarks.harness.calibration`). Modelled-clock numbers are
deterministic for a seed and must be bit-equal across laps.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.harness import THREAD_PINS, layers, stats
from benchmarks.harness.workloads import (
    ENGINE_WORKLOADS,
    SERVICE_WORKLOAD,
    STAGES,
)

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().parent / "run.py"
MIN_LAPS = 3
LAP_TIMEOUT_S = 150
#: Engine presets agree with the serial reference to this absolute
#: tolerance on centroids (the bound tests/engine/test_engines.py pins).
REFERENCE_ATOL = 1e-8
#: What must repeat exactly from lap to lap of one seed.
DETERMINISTIC = ("modelled_s", "cg_iterations", "launches", "vertices_abs_sum")


class Checks:
    """Correctness checks of one invocation; any failure fails the command."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)

    def failures(self) -> list[dict]:
        return [r for r in self.results if not r["ok"]]


def spawn_lap(workload: str, seed: int, work: Path, *, quick: bool = False,
              traced: bool = False, preset: str | None = None,
              steps: int | None = None, n_domains: int | None = None) -> dict:
    """Run one lap in a fresh interpreter and return what it printed.

    ``setup_s`` and ``latency_s`` are taken from this side's clock at
    process start, so they include interpreter start-up and imports.
    ``lap["calibrated"]`` holds the three wall-clock figures divided by
    the host slowdown the lap measured over the same interval.
    """
    cmd = [sys.executable, str(RUN_PY), "lap", "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    for flag, on in (("--quick", quick), ("--traced", traced)):
        if on:
            cmd.append(flag)
    for flag, value in (("--preset", preset), ("--steps", steps),
                        ("--n-domains", n_domains)):
        if value is not None:
            cmd += [flag, str(value)]
    t0 = time.time()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, **THREAD_PINS}, timeout=LAP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"lap {' '.join(cmd[3:])} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    lap = json.loads(proc.stdout.strip().splitlines()[-1])
    lap["setup_s"] = lap["t_ready"] - t0
    lap["latency_s"] = lap["t_done"] - t0
    # raw seconds above, calibrated seconds below (see calibration.py)
    slow = lap["slowdown"]
    run_s = lap["run_wall_s" if "run_wall_s" in lap else "campaign_wall_s"]
    lap["calibrated"] = {
        "setup_s": lap["setup_s"] / slow["setup"],
        "run_s": run_s / slow["run"],
        "latency_s": lap["latency_s"] / slow["lap"],
    }
    return lap


def run_laps(names, seed: int, work: Path, *, quick: bool, min_laps: int,
             seconds: float) -> dict[str, list[dict]]:
    """Round-robin laps over ``names`` until both the lap count and the
    time budget are met."""
    laps: dict[str, list[dict]] = {name: [] for name in names}
    start = time.time()
    rounds = 0
    while rounds < min_laps or time.time() - start < seconds:
        for name in names:
            laps[name].append(spawn_lap(name, seed, work, quick=quick))
        rounds += 1
    return laps


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _deterministic_view(lap: dict) -> dict:
    return {
        "modelled_s": lap.get("modelled_s"),
        "cg_iterations": lap.get("cg_iterations"),
        "launches": lap.get("gpu", {}).get("launches"),
        "vertices_abs_sum": lap.get("vertices_abs_sum"),
    }


def check_completed(workload: str, laps: list[dict], checks: Checks,
                    label: str = "laps") -> None:
    for n, lap in enumerate(laps):
        checks.expect(
            f"{workload}: {label}[{n}] completed without failure",
            lap["failure"] is None and lap["failed_ops"] == 0,
            str(lap["failure"] or f"{lap['failed_ops']} failed steps"),
        )


def check_engine_laps(workload: str, laps: list[dict], checks: Checks,
                      label: str = "laps") -> None:
    """Every lap completed cleanly and repeats the first bit for bit."""
    check_completed(workload, laps, checks, label)
    first = _deterministic_view(laps[0])
    for n, lap in enumerate(laps[1:], 1):
        view = _deterministic_view(lap)
        checks.expect(
            f"{workload}: {label}[{n}] bit-equal to {label}[0] "
            f"({', '.join(DETERMINISTIC)})",
            view == first, f"{view} != {first}",
        )


def check_reference(workload: str, lap: dict, reference: dict,
                    checks: Checks, what: str) -> None:
    """Hold a lap to the serial reference over the reference's steps."""
    checks.expect(
        f"{workload}: serial reference completed",
        reference["failure"] is None, str(reference["failure"]),
    )
    if lap.get("centroids_at_ref") is None or reference["failure"]:
        return
    got = np.array(lap["centroids_at_ref"])
    want = np.array(reference["centroids_at_ref"])
    worst = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
    checks.expect(
        f"{workload}: {what} centroids within {REFERENCE_ATOL:g} of the "
        f"serial reference after {reference['steps']} step(s)",
        worst <= REFERENCE_ATOL, f"max abs difference {worst:g}",
    )


def check_bit_equal(workload: str, lap: dict, reference: dict,
                    checks: Checks, what: str) -> None:
    checks.expect(
        f"{workload}: {what} vertices bit-equal to the serial reference",
        lap.get("vertices_sha256") == reference.get("vertices_sha256"),
        f"{lap.get('vertices_sha256')} != {reference.get('vertices_sha256')}",
    )


# ----------------------------------------------------------------------
# end-to-end metrics (tracing off)
# ----------------------------------------------------------------------
def engine_end_to_end(workload: str, laps: list[dict]):
    """``(metrics, samples)`` of an engine workload's untraced laps."""
    samples = {
        "wall_s_per_step": [
            lap["calibrated"]["run_s"] / lap["steps"] for lap in laps
        ],
        "job_latency_s_p50": [lap["calibrated"]["latency_s"] for lap in laps],
        "setup_s": [lap["calibrated"]["setup_s"] for lap in laps],
        "peak_rss_mb": [lap["peak_rss_mb"] for lap in laps],
    }
    metrics = {name: stats.median(v) for name, v in samples.items()}
    metrics["modelled_s_per_step"] = laps[0]["modelled_s"] / laps[0]["steps"]
    return metrics, samples


def service_end_to_end(laps: list[dict], checks: Checks):
    """``(metrics, samples)`` of the service laps.

    Latency is pooled over every unique job of every lap (the sample
    count is in ``bench.json``); the per-lap medians are kept as the
    spread. ``wall_s_per_step`` is campaign wall per simulated step
    delivered, i.e. 1 / (jobs per second x steps per job).
    """
    for n, lap in enumerate(laps):
        checks.expect(
            f"{SERVICE_WORKLOAD}: lap[{n}] served every submission",
            lap["ready"] and lap["failed_ops"] == 0,
            "; ".join(lap["failures"]) or "server not ready",
        )
    checks.expect(
        f"{SERVICE_WORKLOAD}: modelled seconds bit-equal across laps",
        len({lap["modelled_s_per_step"] for lap in laps}) == 1,
    )
    latencies = [_calibrated_latencies(lap) for lap in laps]
    pooled = [v for lap in latencies for v in lap]
    samples = {
        "wall_s_per_step": [
            lap["calibrated"]["run_s"] / max(1, lap["steps_delivered"])
            for lap in laps
        ],
        "job_latency_s_p50": [stats.percentile(lap, 50) for lap in latencies],
        "setup_s": [lap["calibrated"]["setup_s"] for lap in laps],
        "peak_rss_mb": [lap["peak_rss_mb"] for lap in laps],
    }
    metrics = {name: stats.median(v) for name, v in samples.items()}
    metrics["job_latency_s_p50"] = stats.percentile(pooled, 50)
    metrics["modelled_s_per_step"] = laps[0]["modelled_s_per_step"]
    return metrics, samples


def _calibrated_latencies(lap: dict) -> list:
    """Per-job latencies over the campaign's slowdown; failed stay None."""
    slow = lap["slowdown"]["run"]
    return [None if v is None else v / slow for v in lap["job_latency_s"]]


# ----------------------------------------------------------------------
# per-layer metrics (one traced lap + direct calls)
# ----------------------------------------------------------------------
def engine_per_layer(workload: str, seed: int, work: Path, rec,
                     checks: Checks, *, quick: bool,
                     untraced: dict | None = None):
    """``(metrics, laps)``: the traced lap, the reference laps it is held
    to, and the direct layer calls of one engine workload."""
    spec = ENGINE_WORKLOADS[workload]
    lap_args = dict(quick=quick)
    with rec.span(f"{workload}.traced_lap"):
        traced = spawn_lap(workload, seed, work, traced=True, **lap_args)
        rec.extend(traced.pop("spans"), run=f"{workload}/traced")
    if untraced is None:
        with rec.span(f"{workload}.untraced_lap"):
            untraced = spawn_lap(workload, seed, work, **lap_args)
    check_engine_laps(workload, [untraced, traced], checks,
                      label="untraced/traced")
    with rec.span(f"{workload}.serial_reference"):
        reference = spawn_lap(workload, seed, work, preset="serial",
                              steps=traced["ref_steps"], **lap_args)
    laps = {"traced": traced, "untraced": untraced, "serial": reference}
    if traced["failure"] is not None:
        return {}, laps

    steps = traced["steps"]
    trace = traced["trace"]
    counters = traced["counters"]
    run_wall = traced["run_wall_s"]
    slow = traced["slowdown"]
    m: dict[str, float] = {}
    for stage in STAGES:
        wall = trace["module_summary"].get(stage, {}).get("wall_s", 0.0)
        m[f"stage.{stage}.wall_s_per_step"] = wall / slow["run"] / steps
        m[f"stage.{stage}.modelled_s_per_step"] = (
            traced["modelled_by_stage"].get(stage, 0.0) / steps
        )
        m[f"stage.{stage}.wall_share"] = wall / run_wall
    sweeps = counters.get("open_close.sweeps", 0)
    m["engine.orchestration_wall_s_per_step"] = (
        trace["orchestration_wall_s"] / slow["run"] / steps
    )
    m["engine.first_step_wall_s"] = trace["first_step_wall_s"] / slow["run"]
    m["engine.open_close_sweeps_per_step"] = sweeps / steps
    m["engine.step_retries"] = traced["step_retries"]
    m["engine.rollbacks"] = traced["rollbacks"]
    if spec.preset == "domain":
        # the whole lap is re-run serially, so the ledgers compare whole
        check_bit_equal(workload, traced, reference, checks, "4-domain")
        preset_modelled = traced["modelled_s"]
    else:
        check_reference(workload, traced, reference, checks, spec.preset)
        preset_modelled = trace["prefix_device_s"]
    m["engine.modelled_speedup_vs_serial"] = (
        reference["modelled_s"] / preset_modelled
    )
    hits = counters.get("contact_transfer.hits", 0)
    misses = counters.get("contact_transfer.misses", 0)
    m["contact.transfer_hit_rate"] = hits / max(1, hits + misses)
    m["contact.contacts_per_block"] = traced["n_contacts"] / traced["n_blocks"]
    m["assembly.symbolic_reuse_rate"] = (
        counters.get("assembly.symbolic_reuse", 0) / max(1, sweeps)
    )
    m["solvers.cg_iters_per_step"] = traced["cg_iterations_all"] / steps
    m["solvers.non_convergence"] = counters.get("cg.non_convergence", 0)
    m["solvers.rung_escalations"] = counters.get("solver.rung_escalations", 0)
    gpu = traced["gpu"]
    m["gpu.launches_per_step"] = gpu["launches"] / steps
    m["gpu.flops_per_step"] = gpu["flops"] / steps
    m["gpu.global_bytes_per_step"] = gpu["global_bytes"] / steps
    m["gpu.coalescing_eff"] = gpu["coalescing_eff"]
    m["gpu.divergence_rate"] = gpu["divergence_rate"]
    build = next(s for s in rec.find("model_build", run=f"{workload}/traced"))
    m["meshing.build_wall_s"] = (build["end"] - build["start"]) / slow["setup"]
    m["meshing.n_blocks"] = traced["n_blocks"]
    m["obs.trace_overhead_ratio"] = (
        traced["calibrated"]["run_s"] / untraced["calibrated"]["run_s"]
    )
    m["host.slowdown"] = slow["run"]
    m["failed_share"] = traced["failed_ops"] / steps
    with rec.span(f"{workload}.layer_calls"):
        m.update(layers.measure(
            workload, seed, traced["first_dt"], rec, quick=quick,
            n_domains=spec.n_domains if spec.preset == "domain" else 0,
        ))
    if spec.preset == "domain":
        m.update(_domain_layers(workload, seed, work, rec, checks, laps,
                                lap_args))
    return m, laps


def _domain_layers(workload, seed, work, rec, checks, laps, lap_args) -> dict:
    """Domain-count sweep (1, 2 domains) and preset parity (gpu, hybrid)
    on the domain workload's own model; serial and 4-domain laps are the
    ones already run."""
    traced, serial = laps["traced"], laps["serial"]
    steps = traced["steps"]
    extra = {}
    for key, kwargs in (("n1", {"n_domains": 1}), ("n2", {"n_domains": 2}),
                        ("gpu", {"preset": "gpu"}),
                        ("hybrid", {"preset": "hybrid"})):
        with rec.span(f"{workload}.{key}_lap"):
            extra[key] = spawn_lap(workload, seed, work, **kwargs, **lap_args)
    laps.update(extra)
    check_completed(workload, list(extra.values()), checks,
                    label="n1/n2/gpu/hybrid")
    for key in ("n1", "n2"):
        check_bit_equal(workload, extra[key], serial, checks, f"{key[1]}-domain")
    for key in ("gpu", "hybrid"):
        check_reference(workload, extra[key], serial, checks, key)
    facts = traced["domain"]
    cg_all = max(1, traced["cg_iterations_all"])

    def run_s(lap):
        return lap["calibrated"]["run_s"]

    m = {
        "domain.halo_bytes_per_cg_iter": facts["halo_bytes"] / cg_all,
        "domain.modelled_halo_s_per_step": facts["modelled_halo_s"] / steps,
        "domain.modelled_solve_s_per_step": facts["modelled_solve_s"] / steps,
        "domain.cut_fraction": facts["cut_fraction"],
        "domain.imbalance": facts["imbalance"],
        "domain.wall_over_serial": run_s(traced) / run_s(serial),
        "domain.n1.wall_over_serial": run_s(extra["n1"]) / run_s(serial),
        "domain.n1.modelled_halo_s": extra["n1"]["domain"]["modelled_halo_s"],
        "domain.n2.wall_over_serial": run_s(extra["n2"]) / run_s(serial),
        "domain.modelled_scaling_eff": extra["n1"]["modelled_s"] / (
            facts["n_domains"] * traced["modelled_s"]
        ),
    }
    for preset, source in (("serial", serial), ("gpu", extra["gpu"]),
                           ("hybrid", extra["hybrid"]), ("domain", traced)):
        m[f"engine.preset.{preset}.modelled_s"] = source["modelled_s"]
        m[f"engine.preset.{preset}.wall_s"] = run_s(source)
    return m


def service_per_layer(seed: int, work: Path, rec, checks: Checks, *,
                      quick: bool):
    """``(metrics, laps)`` of one traced service lap (campaign + probe)."""
    with rec.span(f"{SERVICE_WORKLOAD}.traced_lap"):
        lap = spawn_lap(SERVICE_WORKLOAD, seed, work, quick=quick, traced=True)
        rec.extend(lap.pop("spans"), run=f"{SERVICE_WORKLOAD}/traced")
    checks.expect(
        f"{SERVICE_WORKLOAD}: traced lap served every submission",
        lap["ready"] and lap["failed_ops"] == 0,
        "; ".join(lap["failures"]) or "server not ready",
    )
    verbs = lap["verbs_s"]
    probe = lap["probe"]
    slow = lap["slowdown"]["run"]
    overhead = [
        run - engine
        for run, engine in zip(lap["worker_run_s"], lap["engine_wall_s"])
    ]

    def p(values, q, scale=1.0):
        """Calibrated percentile of raw campaign times."""
        return scale * stats.percentile(values, q) / slow if values else 0.0

    m = {
        "service.jobs_per_s": lap["unique_done"] / lap["calibrated"]["run_s"],
        "service.job_latency_s_p90": p(lap["job_latency_s"], 90),
        "service.http.submit_ms_p50": p(verbs["submit"], 50, 1e3),
        "service.http.submit_ms_p90": p(verbs["submit"], 90, 1e3),
        "service.http.status_ms_p50": p(verbs["status"], 50, 1e3),
        "service.http.dedup_ms_p50": p(verbs["dedup"], 50, 1e3),
        "service.http.errors": probe["http_errors"],
        "service.result_not_ready": (
            lap["result_not_ready"] + probe["result_not_ready"]
        ),
        "service.result_gap_ms_p50": p(lap["result_gap_s"], 50, 1e3),
        "service.scheduler.drain_s_p50": p(lap["drain_s"], 50),
        "service.queue.wait_s_p50": p(lap["queue_wait_s"], 50),
        "service.worker.run_s_p50": p(lap["worker_run_s"], 50),
        "service.engine.wall_s_p50": p(lap["engine_wall_s"], 50),
        "service.worker.overhead_s_p50": p(overhead, 50),
        "service.journal.events_per_job": lap["journal_events_per_job"],
        "service.store.cache_hits": lap["store_cache_hits"],
        "host.slowdown": slow,
        "failed_share": lap["failed_ops"] / max(1, lap["ops"]),
    }
    return m, {"traced": lap}
