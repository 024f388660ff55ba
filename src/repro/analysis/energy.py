"""Energy accounting for block systems.

DDA's implicit constant-acceleration scheme is algorithmically dissipative
("DDA gives a real dynamic solution with the correct energy consumption"),
so kinetic + potential energy should not grow for a closed system with
frictional contacts. The Fig 13 bench checks it over its window (40
rocks × 60 steps); longer rocks runs gain energy past t ≈ 0.25 s
(ROADMAP item 1). Kinetic energy is the integrator's ``½ vᵀ M v``
(:func:`repro.engine.physics.kinetic_energy`).
"""

from __future__ import annotations

from repro.core.blocks import BlockSystem
from repro.engine.physics import kinetic_energy


def potential_energy(
    system: BlockSystem, gravity: float = 9.81, datum: float = 0.0
) -> float:
    """Gravitational potential ``rho g S (cy - datum)`` summed over blocks."""
    total = 0.0
    for i in range(system.n_blocks):
        rho = system.material_of(i).density
        total += rho * gravity * system.areas[i] * (
            system.centroids[i, 1] - datum
        )
    return float(total)


def total_energy(
    system: BlockSystem, gravity: float = 9.81, datum: float = 0.0
) -> float:
    """Kinetic + gravitational potential energy."""
    return kinetic_energy(system) + potential_energy(system, gravity, datum)
