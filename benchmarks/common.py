"""Shared builders for the benchmark harness.

Every benchmark reproduces one table or figure of the paper. The paper's
workloads (4361-block slope, 40 000 steps on a Tesla K40) are scaled to
laptop-runnable sizes; each bench documents its scale in the report notes
and EXPERIMENTS.md records the paper-vs-measured rows.
"""

from __future__ import annotations

import argparse
import platform
from pathlib import Path

import numpy as np

from repro.assembly.contact_springs import LOCK
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.meshing.slope_models import build_falling_rocks_model, build_slope_model

#: Where benchmark reports are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_arg_parser(description: str) -> argparse.ArgumentParser:
    """Shared CLI for runnable benchmarks: a ``--json`` output flag."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument(
        "--json", dest="json_path", metavar="PATH", default=None,
        help="write a machine-readable JSON report to PATH "
             "(default: results/BENCH_<name>.json)",
    )
    return p


def write_bench_json(name: str, payload: dict, path=None,
                     trajectory: dict | None = None) -> Path:
    """Write a machine-readable benchmark report.

    The envelope carries the bench name and the environment (python,
    numpy, machine) so perf trajectories collected across PRs stay
    comparable; ``payload`` is the bench-specific measurement dict. The
    write is atomic (tmp + rename) so a crashing bench never leaves a
    half-written report.

    ``trajectory``, when given, is one headline measurement (e.g.
    ``{"wall": ..., "modelled": ...}``) appended to the report's
    ``trajectory`` list instead of overwriting it: the prior report at
    ``path`` is re-read, its trajectory carried over, and the new entry
    gets ``pr`` = last entry's ``pr`` + 1. The committed report thereby
    accumulates one point per optimisation PR — the perf history the
    docs plot — while ``payload`` remains the latest full measurement.
    """
    from repro import __version__
    from repro.io.batch_io import read_json, write_json_atomic

    path = Path(path) if path else RESULTS_DIR / f"BENCH_{name}.json"
    report = {
        "bench": name,
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "payload": payload,
    }
    if trajectory is not None:
        prior_report = read_json(path) if path.exists() else None
        prior = (prior_report or {}).get("trajectory", [])
        prior = [dict(entry) for entry in prior if isinstance(entry, dict)]
        last_pr = prior[-1].get("pr", 0) if prior else 0
        report["trajectory"] = [*prior, {"pr": int(last_pr) + 1, **trajectory}]
    return write_json_atomic(path, report)


def case1_controls(preconditioner: str = "bj") -> SimulationControls:
    """Static stability controls mirroring the paper's Case 1."""
    return SimulationControls(
        time_step=2e-3, dynamic=False, gravity=9.81,
        penalty_scale=50.0, preconditioner=preconditioner,
    )


def case2_controls(preconditioner: str = "bj") -> SimulationControls:
    """Dynamic motion controls mirroring the paper's Case 2."""
    return SimulationControls(
        time_step=2e-3, dynamic=True, gravity=9.81,
        penalty_scale=50.0, preconditioner=preconditioner,
        max_displacement_ratio=0.05,
    )


def modelled_per_step(result) -> dict[str, float]:
    """A run's modelled seconds per step, by pipeline module and total."""
    out = {m: s / result.n_steps for m, s in result.modeled_module_times().items()}
    out["total"] = sum(out.values())
    return out


def scaled_case1_system(joint_spacing: float = 6.0, seed: int = 7):
    """A scaled Case-1 slope (block count grows as spacing shrinks)."""
    return build_slope_model(
        width=80.0, height=40.0, slope_angle_deg=55.0,
        joint_spacing=joint_spacing, seed=seed,
    )


def scaled_case2_system(n_rows: int = 4, n_cols: int = 8):
    """A scaled Case-2 falling-rocks scene."""
    from repro.core.materials import JointMaterial

    return build_falling_rocks_model(
        slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
        n_rock_rows=n_rows, n_rock_cols=n_cols,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )


def representative_step_matrix(joint_spacing: float = 10.0, seed: int = 3):
    """One assembled DDA step matrix with all contacts engaged.

    The worst-case (all springs active) system of a slope step — the
    matrix the preconditioner comparison solves.
    """
    system = scaled_case1_system(joint_spacing, seed)
    engine = GpuEngine(system, case1_controls())
    contacts = engine._detect_contacts()
    contacts.state[:] = LOCK
    diag_idx, diag_blocks, f = engine._build_diagonal()
    geometry = contacts.spring_geometry(system)
    w, ws, fc = engine._build_nondiagonal(
        contacts, np.zeros(contacts.m), geometry
    )
    matrix = engine._assemble(
        np.concatenate([diag_idx, contacts.block_i, contacts.block_j]),
        diag_blocks, contacts, geometry, w, ws,
    )
    return matrix, f + fc
