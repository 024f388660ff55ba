"""Shared DDA step physics: Shi's time integrator and the system
contributions.

Both engines call these functions; the engines differ in *how* the work is
scheduled (serial loops vs classified vectorised kernels), not in what is
computed.

The integrator is one unit, the first section below. Shi's
constant-acceleration scheme adds ``(2/dt²) M`` to each block's
diagonal and ``(2/dt) M v0`` to its load, ``M = ρ ∫ TᵀT dS``; an
accepted solution ``d`` sets ``v = (2/dt) d − v0`` (``0`` when static)
and adds its strain to the stress memory ``σ += E·Δε``. What an
accepted step hands the next is a :class:`Checkpoint`'s fields,
:data:`CARRIED`, the one list a checkpoint's capture, restore, save and
load iterate. Only an accept writes them, so a rejected attempt has
nothing to restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any

import numpy as np

from repro.assembly.contact_springs import (
    SpringGeometry,
    spring_loads,
    spring_stiffness,
)
from repro.assembly.submatrices import (
    fixed_point_contribution,
    mass_integral_matrices,
    point_load_vector,
)
from repro.contact.contact_set import ContactSet
from repro.core.blocks import DOF, BlockSystem
from repro.core.displacement import displacement_matrix
from repro.core.state import SimulationControls

#: Fixed-point spring stiffness as a multiple of the mean Young's modulus
#: (the contact penalty's usual magnitude).
FIXED_POINT_PENALTY_SCALE = 50.0


# ----------------------------------------------------------------------
# Shi's time integrator
# ----------------------------------------------------------------------
def block_densities(system: BlockSystem) -> np.ndarray:
    """``(n,)`` block densities."""
    return np.array([m.density for m in system.materials])[system.material_id]


def mass_matrices(system: BlockSystem, densities: np.ndarray) -> np.ndarray:
    """``(n, 6, 6)`` mass matrices ``M`` on the current geometry."""
    m = mass_integral_matrices(system.areas, system.moments)
    return densities[:, None, None] * m


def inertia(
    m: np.ndarray, dt: float, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal blocks ``(2/dt²) M`` and the loads ``(2/dt) M v0``."""
    return (2.0 / dt**2) * m, (2.0 / dt) * np.einsum("nij,nj->ni", m, v0)


def advance(
    system: BlockSystem, db: np.ndarray, dt: float, dynamic: bool
) -> None:
    """Apply an accepted solution ``db`` ``(n, 6)`` at ``dt`` to the
    velocities and the stress memory (grouped by the few materials)."""
    if dynamic:
        system.velocities = (2.0 / dt) * db - system.velocities
    else:
        system.velocities[:] = 0.0
    for mid, mat in enumerate(system.materials):
        sel = system.material_id == mid
        if sel.any():
            system.stresses[sel] += db[sel, 3:6] @ mat.elastic_matrix().T


def kinetic_energy(system: BlockSystem) -> float:
    """``½ vᵀ M v`` summed over blocks [J per unit depth]."""
    v = system.velocities
    m = mass_matrices(system, block_densities(system))
    return float(0.5 * np.sum(v * np.einsum("nij,nj->ni", m, v)))


def store_normal_force(contacts: ContactSet, normal_force: np.ndarray) -> None:
    """Carry an accept's normal forces as the compression ``normal_disp``."""
    if contacts.m:
        contacts.normal_disp = normal_force / np.maximum(contacts.pn, 1e-300)


def stored_normal_force(contacts: ContactSet) -> np.ndarray:
    """What :func:`store_normal_force` carried (zero on a fresh contact)."""
    return contacts.pn * np.maximum(0.0, contacts.normal_disp)


def _copy(value: Any) -> Any:
    return value.copy() if hasattr(value, "copy") else value


def _carried(path: str, kind: Any) -> Any:
    return field(metadata={"path": path, "kind": kind})


@dataclass
class Checkpoint:
    """What ``step`` accepted steps hand the next one: a snapshot a run
    resumes from bit-exactly, step numbering included.

    Every field is :data:`CARRIED`. Its metadata names where the engine
    holds it (``path``) and how a checkpoint file stores it (``kind``):
    ``int`` or ``float`` (a header number), ``"array"`` (an npz
    member), ``"contacts"`` (a ``c_<column>`` member per
    :class:`ContactSet` column) or one converter per point coordinate
    (header rows).
    """

    step: int = _carried("step", int)
    dt: float = _carried("dt", float)
    sim_time: float = _carried("sim_time", float)
    vertices: np.ndarray = _carried("system.vertices", "array")
    velocities: np.ndarray = _carried("system.velocities", "array")
    stresses: np.ndarray = _carried("system.stresses", "array")
    prev_solution: np.ndarray = _carried("_prev_solution", "array")
    fixed_points: list[tuple[int, float, float]] = _carried(
        "system.fixed_points", (int, float, float)
    )
    fixed_anchors: list[tuple[float, float]] = _carried(
        "system.fixed_anchors", (float, float)
    )
    load_points: list[tuple[int, float, float, float, float]] = _carried(
        "system.load_points", (int, float, float, float, float)
    )
    contacts: ContactSet = _carried("_contacts", "contacts")

    @classmethod
    def capture(cls, engine) -> "Checkpoint":
        """A copy of ``engine``'s carried state."""
        return cls(**{
            f.name: _copy(attrgetter(f.metadata["path"])(engine))
            for f in CARRIED
        })

    def restore(self, engine) -> None:
        """Give ``engine`` a copy of this snapshot's carried state."""
        for f in CARRIED:
            owner, _, attr = f.metadata["path"].rpartition(".")
            target = attrgetter(owner)(engine) if owner else engine
            setattr(target, attr, _copy(getattr(self, f.name)))
        engine.system._refresh_cache()


CARRIED = fields(Checkpoint)


def diagonal_system(
    system: BlockSystem,
    controls: SimulationControls,
    dt: float,
    sim_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal stiffness contributions and the global load vector.

    Returns ``(diag_idx, diag_blocks, f)`` where the contribution stream
    carries elastic, inertia (:func:`inertia`) and fixed-point terms, and
    ``f`` collects inertia momentum, gravity, seismic base shaking
    (evaluated at ``sim_time``), and point loads.
    """
    n = system.n_blocks
    base_ax, base_ay = 0.0, 0.0
    if controls.base_acceleration is not None:
        base_ax, base_ay = controls.base_acceleration(sim_time)
    v0 = system.velocities if controls.dynamic else np.zeros((n, DOF))
    densities = block_densities(system)
    areas = system.areas

    # --- vectorised bulk terms (every block) -------------------------
    blocks, momentum = inertia(mass_matrices(system, densities), dt, v0)
    # elastic stiffness grouped by material (few distinct materials)
    for mid, mat in enumerate(system.materials):
        sel = system.material_id == mid
        if sel.any():
            blocks[sel, 3:6, 3:6] += (
                areas[sel, None, None] * mat.elastic_matrix()
            )
    fb = np.zeros((n, DOF))
    fb += momentum
    fb[:, 0] += -base_ax * densities * areas
    fb[:, 1] += -(controls.gravity + base_ay) * densities * areas
    # stress memory: accumulated stress enters as the initial-stress load
    fb[:, 3:6] -= areas[:, None] * system.stresses

    # --- sparse boundary-condition terms (few points) ----------------
    mean_young = float(np.mean([m.young for m in system.materials]))
    fixed_penalty = FIXED_POINT_PENALTY_SCALE * mean_young
    for (b, x, y), (ax_, ay_) in zip(
        system.fixed_points, system.fixed_anchors
    ):
        blocks[b] += fixed_point_contribution(
            np.array([x, y]), system.centroids[b], fixed_penalty
        )
        # restoring load toward the original anchor (no per-step ratchet)
        t = displacement_matrix(
            np.array([[x, y]]), system.centroids[b][None, :]
        )[0]
        fb[b] += fixed_penalty * (t.T @ np.array([ax_ - x, ay_ - y]))
    for b, x, y, fx, fy in system.load_points:
        fb[b] += point_load_vector(
            np.array([x, y]), system.centroids[b], fx, fy
        )
    return (
        np.arange(n, dtype=np.int64),
        blocks,
        fb.reshape(-1),
    )


def contact_loads(
    system: BlockSystem,
    contacts: ContactSet,
    normal_force: np.ndarray,
    geometry: SpringGeometry | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """What one open–close sweep changes: ``(w, ws, f)``.

    ``w`` / ``ws`` are the ``(m,)`` normal / shear spring weights of
    :func:`~repro.assembly.contact_springs.spring_loads` (``ws`` is
    ``None`` when no spring is locked) — with the step's spring geometry
    they determine every contact block of ``K`` — and ``f`` the global
    load contribution of the contact springs. Parameters as for
    :func:`contact_system`.
    """
    n = system.n_blocks
    if geometry is None:
        geometry = contacts.spring_geometry(system)
    jm = system.joint_material
    friction = normal_force * jm.tan_phi + jm.cohesion * geometry.length
    w, ws, fi, fj = spring_loads(
        geometry, contacts.state, contacts.pn, contacts.ps,
        friction, contacts.shear_sign,
    )
    f = contacts.load_sum(n)(np.concatenate([fi, fj]))
    return w, ws, f.reshape(-1)


def contact_system(
    system: BlockSystem,
    contacts: ContactSet,
    normal_force: np.ndarray,
    geometry: SpringGeometry | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contact contributions in assembly-stream form.

    The materialising reference of the engines' bound assembly
    (:meth:`repro.assembly.symbolic.AssemblyPlan.bind`), which sums the
    same blocks but forms, and gathers the spring vectors of, only the
    rows of segments that hold a nonzero one.

    Parameters
    ----------
    normal_force:
        Per-contact compressive normal force from the previous open–close
        iteration (drives the friction magnitude of SLIDE contacts).
    geometry:
        The table's spring linearisation when the caller already holds
        it (the engines build it once per step); built here otherwise.

    Returns
    -------
    (diag_idx, diag_blocks, off_rows, off_cols, off_blocks, f)
        ``f`` is the global load contribution of the contact springs.
    """
    if geometry is None:
        geometry = contacts.spring_geometry(system)
    w, ws, f = contact_loads(system, contacts, normal_force, geometry)
    kii, kjj, kij = spring_stiffness(geometry, w, ws)
    return (
        np.concatenate([contacts.block_i, contacts.block_j]),
        np.concatenate([kii, kjj]),
        contacts.block_i.copy(),
        contacts.block_j.copy(),
        kij,
        f,
    )
