"""The materialising reference of the engines' contact blocks.

The engines sum every contact's blocks straight into ``K``
(:meth:`repro.assembly.symbolic.AssemblyPlan.bind`); the tests hold
them to the per-contact arrays this module builds.
"""

import numpy as np

from repro.assembly.contact_springs import (
    SpringGeometry,
    spring_loads,
    spring_stiffness,
)


def contact_contributions(
    geometry: SpringGeometry,
    states: np.ndarray,
    pn: np.ndarray,
    ps: np.ndarray,
    friction_force: np.ndarray,
    shear_sign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(kii, kjj, kij, fi, fj)``: every contact's ``(m, 6, 6)``
    stiffness contributions (``K_ji = K_ij^T`` is implied by symmetry)
    and ``(m, 6)`` loads; parameters as for
    :func:`~repro.assembly.contact_springs.spring_loads`."""
    w, ws, fi, fj = spring_loads(
        geometry, states, pn, ps, friction_force, shear_sign
    )
    return (*spring_stiffness(geometry, w, ws), fi, fj)
