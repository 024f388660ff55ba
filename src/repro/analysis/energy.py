"""Energy accounting for block systems.

DDA's implicit constant-acceleration scheme is algorithmically dissipative
("DDA gives a real dynamic solution with the correct energy consumption"),
so kinetic + potential energy must be non-increasing for a closed system
with frictional contacts — a property the test suite checks on settling
runs.
"""

from __future__ import annotations

from repro.assembly.submatrices import mass_integral_matrix
from repro.core.blocks import BlockSystem


def kinetic_energy(system: BlockSystem) -> float:
    """``1/2 v^T M v`` summed over blocks (exact polygon mass matrices)."""
    total = 0.0
    for i in range(system.n_blocks):
        mat = system.material_of(i)
        m = mat.density * mass_integral_matrix(
            system.areas[i], system.moments[i]
        )
        v = system.velocities[i]
        total += 0.5 * float(v @ m @ v)
    return total


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
