"""Reference implementations the engine tests compare against.

:func:`update_contact_states_serial` is the per-contact scalar form of
the open–close rule — the serial pipeline's original interpenetration
check. No engine runs it; it is kept as the independent implementation
that makes the driver-equivalence pins in ``test_open_close_driver.py``
and ``test_physics.py`` meaningful.
"""

import numpy as np

from repro.assembly.contact_springs import (
    LOCK,
    OPEN,
    SLIDE,
    normal_spring_vectors,
    shear_spring_vectors,
)
from repro.contact.contact_set import ContactSet
from repro.contact.open_close import StateUpdate
from repro.core.blocks import DOF, BlockSystem


def update_contact_states_serial(
    system: BlockSystem,
    contacts: ContactSet,
    d: np.ndarray,
    *,
    tension_tolerance: float = 0.0,
    prev_normal_force: np.ndarray | None = None,
    force_tolerance: float = 0.0,
) -> StateUpdate:
    """Per-contact Python loop version of
    :func:`repro.engine.physics.update_contact_states`.

    The branchy CPU code of the paper's Section III.D example, one
    contact at a time from its own single-row spring vectors.
    """
    m = contacts.m
    states = np.empty(m, dtype=np.int64)
    signs = contacts.shear_sign.copy()
    nforce = np.zeros(m)
    prev_nf = np.zeros(m) if prev_normal_force is None else prev_normal_force
    changed = 0
    significant = 0
    max_pen = 0.0
    jm = system.joint_material
    db = d.reshape(system.n_blocks, DOF)
    verts = system.vertices
    cents = system.centroids
    for k in range(m):
        one = slice(k, k + 1)
        p1 = verts[contacts.vertex_idx[one]]
        e1 = verts[contacts.e1_idx[one]]
        e2 = verts[contacts.e2_idx[one]]
        ci = cents[contacts.block_i[one]]
        cj = cents[contacts.block_j[one]]
        e, g, d0, length = normal_spring_vectors(p1, e1, e2, ci, cj)
        es, gs, _ = shear_spring_vectors(
            p1, e1, e2, contacts.ratio[one], ci, cj
        )
        di = db[contacts.block_i[k]]
        dj = db[contacts.block_j[k]]
        dn = float(d0[0] + e[0] @ di + g[0] @ dj)
        ds = float(es[0] @ di + gs[0] @ dj)
        cap = 0.0
        if contacts.state[k] != OPEN:
            cap = (
                jm.tensile_strength * float(length[0])
                / max(contacts.pn[k], 1e-300)
            )
        if dn > tension_tolerance + cap:
            new = OPEN
        else:
            n_f = max(0.0, -contacts.pn[k] * dn)
            nforce[k] = n_f
            limit = n_f * jm.tan_phi + jm.cohesion * float(length[0])
            if abs(contacts.ps[k] * ds) > limit:
                ds_sign = 1.0 if ds >= 0 else -1.0
                if (
                    contacts.state[k] == SLIDE
                    and ds_sign != contacts.shear_sign[k]
                ):
                    new = LOCK  # anti-chatter: direction reversal sticks
                else:
                    new = SLIDE
                    signs[k] = ds_sign
            else:
                new = LOCK
        if dn < 0 and -dn > max_pen:
            max_pen = -dn
        states[k] = new
        if new != contacts.state[k]:
            changed += 1
            if max(prev_nf[k], nforce[k]) > force_tolerance:
                significant += 1
    return StateUpdate(
        states=states,
        shear_sign=signs,
        normal_force=nforce,
        changed=changed,
        significant_changes=significant,
        max_penetration=max_pen,
    )
