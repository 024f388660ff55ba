"""Vectorised open–close driver: one sweep updates every contact at once.

The open–close iteration (paper §III.D) re-evaluates each contact's
normal penetration and tangential displacement after every solve and
switches its state (OPEN / SLIDE / LOCK) until no significant switch
remains. The contact *geometry* — the spring linearisation vectors
``e``, ``g``, ``e_s``, ``g_s``, the initial gap ``d0`` and the edge
length, one :class:`~repro.assembly.contact_springs.SpringGeometry` —
is constant for the whole step (vertices only move in data updating,
after the iteration converges), so the driver factors the sweep into:

* :meth:`OpenCloseDriver.build` — everything displacement-independent:
  the step's spring geometry plus the friction cohesion term and the
  tensile-capacity term derived from it;
* :meth:`OpenCloseDriver.sweep` — array-wide state classification
  (open/sliding/reversal masks), batched spring sign and lock updates,
  and a single convergence reduction, per open–close iteration.

The sweep evaluates the *same* einsum formulation as the GPU engine's
restructured kernel always has, so the engines share one numeric path;
the per-contact scalar loop survives as the test oracle in
``tests/engine/oracles.py``, the independent reference the
equivalence tests pin the driver against.
Virtual-GPU launch metering stays with the engines — the driver does
the arithmetic, the engines charge their own kernels — so modelled
time is unchanged by this vectorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.contact_springs import (
    LOCK,
    OPEN,
    SLIDE,
    SpringGeometry,
)
from repro.contact.contact_set import ContactSet
from repro.core.blocks import DOF, BlockSystem


@dataclass
class StateUpdate:
    """Result of one interpenetration-checking sweep.

    Attributes
    ----------
    states:
        New per-contact states, shape ``(m,)``.
    shear_sign:
        Updated sliding directions, shape ``(m,)``.
    normal_force:
        Compressive normal force per contact (>= 0), shape ``(m,)``,
        for the next sweep's friction magnitude.
    changed:
        How many contacts switched state (scalar).
    significant_changes:
        State switches whose contact force (before or after) exceeds the
        force tolerance (scalar). Redundant blocky systems churn the
        labels of near-zero-force contacts indefinitely (the
        contact-force indeterminacy of rigid frictional assemblies); the
        open–close loop converges when no *significant* switch remains,
        which is the acceptance rule classic DDA's 6-sweep cap
        effectively implements.
    max_penetration:
        Deepest post-solve penetration (positive scalar; 0 if none).
    """

    states: np.ndarray
    shear_sign: np.ndarray
    normal_force: np.ndarray
    changed: int
    significant_changes: int
    max_penetration: float


def _empty_update() -> StateUpdate:
    return StateUpdate(
        states=np.zeros(0, dtype=np.int64),
        shear_sign=np.zeros(0),
        normal_force=np.zeros(0),
        changed=0,
        significant_changes=0,
        max_penetration=0.0,
    )


@dataclass
class OpenCloseDriver:
    """Per-step precomputed state of the vectorised open–close rule.

    Attributes
    ----------
    contacts:
        The live contact table the driver sweeps. The engine rebinds
        ``contacts.state`` / ``contacts.shear_sign`` between sweeps;
        the driver reads them afresh on every call.
    n_blocks:
        Block count (``d`` reshapes to ``(n_blocks, 6)``).
    geometry:
        The table's :class:`~repro.assembly.contact_springs.
        SpringGeometry` (shared with the step's matrix builds).
    tan_phi:
        Joint friction coefficient (scalar).
    cohesion_term:
        ``(m,)`` cohesion contribution ``c L`` to the friction limit.
    tension_term:
        ``(m,)`` tensile opening capacity ``T0 L / p_n`` applied to
        previously-closed contacts.
    force_tolerance:
        The significance noise floor (see :class:`StateUpdate`).
    """

    contacts: ContactSet
    n_blocks: int
    geometry: SpringGeometry
    tan_phi: float
    cohesion_term: np.ndarray
    tension_term: np.ndarray
    force_tolerance: float = 0.0

    @classmethod
    def build(
        cls,
        system: BlockSystem,
        contacts: ContactSet,
        geometry: SpringGeometry | None = None,
        *,
        force_tolerance: float = 0.0,
    ) -> "OpenCloseDriver":
        """Precompute the displacement-independent sweep state.

        ``geometry`` is the table's spring linearisation when the caller
        already holds it (the engines, once per step); otherwise it is
        built here. On top of it come the ``(m,)`` cohesion and tensile
        terms of the friction/opening thresholds.
        """
        if geometry is None:
            geometry = contacts.spring_geometry(system)
        jm = system.joint_material
        return cls(
            contacts=contacts,
            n_blocks=system.n_blocks,
            geometry=geometry,
            tan_phi=jm.tan_phi,
            cohesion_term=jm.cohesion * geometry.length,
            tension_term=(
                jm.tensile_strength * geometry.length
                / np.maximum(contacts.pn, 1e-300)
            ),
            force_tolerance=force_tolerance,
        )

    def sweep(
        self,
        d: np.ndarray,
        prev_normal_force: np.ndarray | None = None,
    ) -> StateUpdate:
        """One array-wide open–close sweep under the solution ``d``.

        Parameters
        ----------
        d:
            Global solution vector, shape ``(6 n_blocks,)``.
        prev_normal_force:
            ``(m,)`` compressive normal forces of the previous sweep
            (zeros if omitted) — the significance floor compares against
            the larger of the previous and current force.
        """
        contacts = self.contacts
        m = contacts.m
        if m == 0:
            return _empty_update()
        db = d.reshape(self.n_blocks, DOF)
        di = db[contacts.block_i]
        dj = db[contacts.block_j]
        geo = self.geometry
        dn = (
            geo.d0
            + np.einsum("mk,mk->m", geo.e, di)
            + np.einsum("mk,mk->m", geo.g, dj)
        )
        ds = (
            np.einsum("mk,mk->m", geo.e_s, di)
            + np.einsum("mk,mk->m", geo.g_s, dj)
        )

        normal_force = np.maximum(0.0, -contacts.pn * dn)
        shear_force = contacts.ps * ds
        friction_limit = normal_force * self.tan_phi + self.cohesion_term
        # tensile strength: a previously-closed contact resists opening
        # until its tensile capacity T0 * L is exceeded (fresh/open
        # contacts carry no bond and open at the geometric tolerance)
        tension_cap = np.where(
            contacts.state != OPEN, self.tension_term, 0.0
        )
        open_now = dn > tension_cap
        sliding = (~open_now) & (np.abs(shear_force) > friction_limit)
        # anti-chatter rule: a contact that was already sliding and now
        # wants to slide the *other* way re-locks instead (its sliding
        # direction reversed within the step, i.e. it is actually
        # sticking). Without this, the friction force pair flip-flops
        # between open–close sweeps and pumps spurious tangential
        # momentum into the blocks.
        ds_sign = np.sign(ds, where=ds != 0, out=np.ones_like(ds))
        reversal = (
            sliding
            & (contacts.state == SLIDE)
            & (ds_sign != contacts.shear_sign)
        )
        sliding = sliding & ~reversal
        new_states = np.where(
            open_now, OPEN, np.where(sliding, SLIDE, LOCK)
        ).astype(np.int64)
        new_sign = np.where(sliding, ds_sign, contacts.shear_sign)
        switched = new_states != contacts.state
        # the convergence reduction: one scalar pair per sweep crosses
        # to the host, exactly what the restructured kernel returns
        changed = int(np.count_nonzero(switched))  # lint: sync-ok[sweep-convergence] -- per-sweep convergence scalar
        prev_nf = (
            np.zeros(m) if prev_normal_force is None else prev_normal_force
        )
        peak_force = np.maximum(prev_nf, normal_force)
        significant = int(  # lint: sync-ok[sweep-convergence] -- per-sweep convergence scalar
            np.count_nonzero(switched & (peak_force > self.force_tolerance))
        )
        max_pen = float(np.maximum(0.0, -dn).max())  # lint: sync-ok[sweep-health] -- per-sweep health scalar
        return StateUpdate(
            states=new_states,
            shear_sign=new_sign,
            normal_force=normal_force,
            changed=changed,
            significant_changes=significant,
            max_penetration=max_pen,
        )
