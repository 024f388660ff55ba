"""Shared DDA step physics: the system contributions.

Both engines call these functions; the engines differ in *how* the work is
scheduled (serial loops vs classified vectorised kernels), not in what is
computed.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.contact_springs import (
    SpringGeometry,
    spring_loads,
    spring_stiffness,
)
from repro.assembly.submatrices import (
    fixed_point_contribution,
    point_load_vector,
)
from repro.contact.contact_set import ContactSet
from repro.core.blocks import DOF, BlockSystem
from repro.core.state import SimulationControls

#: Fixed-point spring stiffness as a multiple of the mean Young's modulus
#: (the contact penalty's usual magnitude).
FIXED_POINT_PENALTY_SCALE = 50.0


def diagonal_system(
    system: BlockSystem,
    controls: SimulationControls,
    dt: float,
    sim_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal stiffness contributions and the global load vector.

    Returns ``(diag_idx, diag_blocks, f)`` where the contribution stream
    carries elastic, inertia and fixed-point terms, and ``f`` collects
    inertia momentum, gravity, seismic base shaking (evaluated at
    ``sim_time``), and point loads.
    """
    n = system.n_blocks
    base_ax, base_ay = 0.0, 0.0
    if controls.base_acceleration is not None:
        base_ax, base_ay = controls.base_acceleration(sim_time)
    v0 = system.velocities if controls.dynamic else np.zeros((n, DOF))
    densities = np.array(
        [system.materials[m].density for m in system.material_id]
    )
    areas = system.areas

    # --- vectorised bulk terms (every block) -------------------------
    from repro.assembly.submatrices import mass_integral_matrices

    m_rho = densities[:, None, None] * mass_integral_matrices(
        areas, system.moments
    )
    blocks = (2.0 / dt**2) * m_rho
    # elastic stiffness grouped by material (few distinct materials)
    for mid, mat in enumerate(system.materials):
        sel = system.material_id == mid
        if sel.any():
            blocks[sel, 3:6, 3:6] += (
                areas[sel, None, None] * mat.elastic_matrix()
            )
    fb = np.zeros((n, DOF))
    fb += (2.0 / dt) * np.einsum("nij,nj->ni", m_rho, v0)
    fb[:, 0] += -base_ax * densities * areas
    fb[:, 1] += -(controls.gravity + base_ay) * densities * areas
    # stress memory: accumulated stress enters as the initial-stress load
    fb[:, 3:6] -= areas[:, None] * system.stresses

    # --- sparse boundary-condition terms (few points) ----------------
    mean_young = float(np.mean([m.young for m in system.materials]))
    fixed_penalty = FIXED_POINT_PENALTY_SCALE * mean_young
    from repro.core.displacement import displacement_matrix

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
    same blocks without forming them per contact.

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
