"""Quickstart: build a small blocky system, run the GPU pipeline, inspect results.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GpuEngine, SimulationControls
from repro.meshing.slope_models import build_brick_wall


def main() -> None:
    # A 4x6 running-bond brick wall on a fixed base slab: 4*6 bricks plus
    # the half-brick ends of the offset courses.
    system = build_brick_wall(rows=4, cols=6)
    print(f"model: {system}")

    controls = SimulationControls(
        time_step=5e-4,       # physical seconds per step
        dynamic=True,         # keep velocities between steps
        gravity=9.81,
        penalty_scale=50.0,   # contact springs at 50x Young's modulus
        preconditioner="bj",  # block Jacobi, the paper's recommendation
    )
    engine = GpuEngine(system, controls)
    result = engine.run(steps=50, snapshot_every=25)

    print(f"\nran {result.n_steps} steps "
          f"({result.total_cg_iterations} CG iterations total)")
    print(f"largest block displacement: {result.max_total_displacement():.2e} m")
    print(f"contacts in final step: {result.steps[-1].n_contacts}")

    print("\nper pipeline module: measured wall (s), modelled Tesla K40 (s)")
    times = result.module_times
    for module, seconds in times.times.items():
        print(f"  {module:32s} {seconds:9.4f} {times.modelled[module]:9.6f}")

    # the wall should still be standing: no block moved more than a brick
    assert result.max_total_displacement() < 1.0
    print("\nthe wall is still standing — quickstart OK")


if __name__ == "__main__":
    main()
