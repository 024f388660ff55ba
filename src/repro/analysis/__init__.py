"""Analysis utilities: the branch-restructuring demo, energy accounting,
and whole-system interpenetration audits."""

from repro.analysis.divergence_demo import (
    naive_branch_kernel,
    restructured_branch_kernel,
)
from repro.analysis.energy import kinetic_energy, potential_energy, total_energy
from repro.analysis.interpenetration import system_interpenetration_audit

__all__ = [
    "naive_branch_kernel",
    "restructured_branch_kernel",
    "kinetic_energy",
    "potential_energy",
    "total_energy",
    "system_interpenetration_audit",
]
