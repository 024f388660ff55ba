"""Rubble collapse: a Voronoi block pile settling under gravity.

A third workload family beyond the paper's two cases: a box of irregular
convex Voronoi blocks with opened joints collapses and compacts. Shows
a run driven in bursts until the pile is static, the per-step CSV
export, and the ASCII state rendering.

Run:  python examples/rubble_collapse.py [--blocks N] [--shrink S]
"""

import argparse

import numpy as np

from repro import SimulationControls
from repro.analysis.energy import total_energy
from repro.core.materials import JointMaterial
from repro.engine.gpu_engine import GpuEngine
from repro.io.ascii_art import render_system
from repro.meshing.voronoi import build_voronoi_rubble


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=30)
    parser.add_argument("--shrink", type=float, default=0.03,
                        help="joint opening fraction (blocks start loose)")
    parser.add_argument("--max-steps", type=int, default=300)
    args = parser.parse_args()

    system = build_voronoi_rubble(
        width=20.0, height=10.0, n_blocks=args.blocks, seed=11,
        shrink=args.shrink,
        joint_material=JointMaterial(friction_angle_deg=25.0),
    )
    print(f"rubble pile: {system.n_blocks} Voronoi blocks, "
          f"joints opened by {args.shrink:.0%}")
    print("\ninitial state:")
    print(render_system(system, width=76, height=18))

    controls = SimulationControls(
        time_step=1e-3, dynamic=True, gravity=9.81,
        max_displacement_ratio=0.05,
    )
    engine = GpuEngine(system, controls)
    e0 = total_energy(system)
    y0 = system.centroids[:, 1].copy()
    # the paper's Case 1 stopping rule: run in bursts until a whole burst
    # moves every vertex less than 1e-5 of the mean block size
    tolerance = 1e-5 * float(system.areas.mean()) ** 0.5
    steps, static = [], False
    while len(steps) < args.max_steps and not static:
        result = engine.run(steps=min(25, args.max_steps - len(steps)))
        steps += result.steps
        static = max(s.max_displacement for s in result.steps) < tolerance
    result.steps = steps

    print(f"\nran {result.n_steps} steps — "
          f"{'reached static state' if static else 'still settling'}")
    print(f"energy dissipated: {e0 - total_energy(system):.3e} J")
    print(f"mean settlement: {np.mean(y0 - system.centroids[:, 1]):.4f} m")
    print("\nfinal state:")
    print(render_system(system, width=76, height=18))

    result.to_csv("results/rubble_steps.csv")
    print("\nper-step diagnostics written to results/rubble_steps.csv")


if __name__ == "__main__":
    main()
