"""Preconditioner comparison on a DDA time-step sequence (paper Table I).

Runs a short static slope simulation three times — with block Jacobi,
SSOR approximate inverse, and ILU(0) — and reports the Table-I columns:
average CG iterations per step, modelled construction and application
times, and the modelled total equation-solving time.

Run:  python examples/preconditioner_study.py [--steps N]
"""

import argparse

from repro import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.meshing.slope_models import build_slope_model
from repro.util.tables import Table


def run_with(preconditioner: str, steps: int):
    system = build_slope_model(joint_spacing=10.0, seed=3)
    controls = SimulationControls(
        time_step=2e-3, dynamic=False, gravity=9.81,
        preconditioner=preconditioner, cg_tolerance=1e-8,
    )
    engine = GpuEngine(system, controls)
    result = engine.run(steps=steps)
    by_kernel = result.device.time_by_kernel()
    construct = sum(t for k, t in by_kernel.items() if "construct" in k)
    apply_t = sum(
        t for k, t in by_kernel.items()
        if "apply" in k or "tss_level" in k
    )
    solving = result.modeled_module_times().get("equation_solving", 0.0)
    return result, construct, apply_t, solving


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10)
    args = parser.parse_args()

    table = Table(
        "preconditioners on the GPU pipeline (modelled K40, per run)",
        [
            "preconditioner", "avg iters/step", "construction (ms)",
            "application (ms)", "equation solving total (ms)",
        ],
    )
    for name in ("bj", "ssor", "ilu"):
        result, construct, apply_t, solving = run_with(name, args.steps)
        table.add_row([
            name.upper(),
            result.mean_cg_iterations,
            construct * 1e3,
            apply_t * 1e3,
            solving * 1e3,
        ])
        print(f"{name}: done ({result.n_steps} steps)")
    print()
    print(table)
    print(
        "\npaper Table I: ILU needs the fewest iterations but its"
        " construction + triangular solves make BJ/SSOR-AI the better"
        " total — the same trade-off should be visible above."
    )


if __name__ == "__main__":
    main()
