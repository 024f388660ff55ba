"""The Fig.-1 serial pipeline (the paper's CPU baseline).

The *modelled cost* of every stage is the serial formulation's —
upper-triangular broad phase, assembly charged as one single-core
scatter loop, a per-contact interpenetration check charged as the
branchy single-core loop — on the single-core E5620 profile. The
*numerics* are the shared vectorised kernels: the broad phase is
:func:`repro.contact.broad_phase.broad_phase_pairs` sorted into the
double loop's pair order, the interpenetration check the vectorised
open–close driver. The loops themselves survive as test oracles
(``tests/contact/broad_phase_oracle.py``, ``tests/engine/oracles.py``),
the references the equivalence tests pin the vectorised forms against.
The physics is identical to the GPU engine's (the pipeline-equivalence
tests verify it).
"""

from __future__ import annotations

import numpy as np

from repro.assembly.symbolic import AssemblyPlan
from repro.contact.broad_phase import broad_phase_pairs, sort_pairs
from repro.contact.contact_set import ContactSet
from repro.contact.initialization import initialize_contacts_unclassified
from repro.contact.narrow_phase import narrow_phase
from repro.contact.transfer import transfer_contacts
from repro.engine.base import EngineBase
from repro.engine.physics import contact_loads, diagonal_system
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, E5620


class CpuStages(EngineBase):
    """Matrix building, assembly and data updating as single-core loops
    on the ``serial_*`` ledger (the stages :class:`SerialEngine` and the
    hybrid pipeline both run on the CPU)."""

    def _build_diagonal(self):
        out = diagonal_system(self.system, self.controls, self.dt, self.sim_time)
        n = self.system.n_blocks
        self.device.launch(
            "serial_diagonal_build",
            KernelCounters(
                flops=700.0 * n,  # mass integrals + elastic + fixed springs
                global_bytes_read=400.0 * n,
                global_bytes_written=36.0 * 8 * n,
                threads=1, warps=1,
            ),
        )
        return out

    def _build_nondiagonal(self, contacts, normal_force, geometry=None):
        out = contact_loads(self.system, contacts, normal_force, geometry)
        m = contacts.m
        self.device.launch(
            "serial_nondiagonal_build",
            KernelCounters(
                flops=(3 * 36 * 4 + 200.0) * m,
                global_bytes_read=500.0 * m,
                global_bytes_written=3 * 36.0 * 8 * m,
                threads=1, warps=1,
            ),
        )
        return out

    def _plan_assembly(self, diag_idx, off_rows, off_cols):
        plan = AssemblyPlan.build(
            self.system.n_blocks, diag_idx, off_rows, off_cols
        )
        total = diag_idx.size + off_rows.size
        self.device.launch(
            "serial_scatter_assembly",
            KernelCounters(
                flops=36.0 * total,
                global_bytes_read=36.0 * 8 * total,
                global_bytes_written=36.0 * 8 * total,
                threads=1, warps=1,
            ),
        )
        return plan

    def _update_data(self, d):
        self._apply_geometry_update(d)
        v = self.system.vertices.shape[0]
        self.device.launch(
            "serial_data_update",
            KernelCounters(
                flops=30.0 * v,
                global_bytes_read=16.0 * v,
                global_bytes_written=16.0 * v,
                threads=1, warps=1,
            ),
        )


class SerialEngine(CpuStages):
    """Serial CPU pipeline (paper Fig. 1)."""

    default_profile: DeviceProfile = E5620

    # ------------------------------------------------------------------
    def _detect_contacts(self) -> ContactSet:
        """The serial pipeline's detection: the same vectorised kernels
        as the GPU preset, uncharged, under analytic ``serial_*`` costs;
        the narrow phase's candidate rows come from the same kept
        :class:`~repro.contact.narrow_phase.CandidatePlan`."""
        system = self.system
        # the vectorised kernel, uncharged, in the serial double loop's
        # lexicographic pair order
        i, j = sort_pairs(
            *broad_phase_pairs(system.aabbs, self.contact_threshold)
        )
        n = system.n_blocks
        # serial cost: n(n-1)/2 AABB tests, ~8 flops and 64 bytes each
        tests = n * (n - 1) / 2.0
        self.device.launch(
            "serial_broad_phase",
            KernelCounters(
                flops=8.0 * tests, global_bytes_read=64.0 * tests,
                threads=1, warps=1,
            ),
        )
        contacts = narrow_phase(
            system, i, j, self.contact_threshold, tol=self.tolerances,
            candidates=self._narrow_candidates(i, j),
        )
        self._charge_serial_narrow(i.size, contacts.m)
        contacts = transfer_contacts(
            self._contacts, contacts, system.vertices.shape[0],
            metrics=self.metrics,
        )
        self.device.launch(
            "serial_contact_transfer",
            KernelCounters(
                flops=10.0 * (self._contacts.m + contacts.m),
                global_bytes_read=48.0 * (self._contacts.m + contacts.m),
                threads=1, warps=1,
            ),
        )
        contacts = initialize_contacts_unclassified(
            system, contacts, self.controls.penalty_scale
        )
        self.device.launch(
            "serial_contact_init",
            KernelCounters(
                flops=48.0 * contacts.m,
                global_bytes_read=112.0 * contacts.m,
                global_bytes_written=32.0 * contacts.m,
                threads=1, warps=1,
            ),
        )
        return contacts

    def _charge_serial_narrow(self, n_pairs: int, n_contacts: int) -> None:
        counts = np.diff(self.system.offsets)
        avg_v = float(counts.mean())
        rows = 2.0 * n_pairs * avg_v * avg_v
        self.device.launch(
            "serial_narrow_phase",
            KernelCounters(
                flops=54.0 * rows + 40.0 * n_contacts,
                global_bytes_read=96.0 * rows,
                global_bytes_written=64.0 * n_contacts,
                threads=1, warps=1,
            ),
        )

    def _check_interpenetration(self, contacts, d, prev_normal_force):
        # the vectorised driver sweep; the modelled cost stays the
        # single-core per-contact loop below
        update = self._oc_sweep(d, prev_normal_force)
        self.device.launch(
            "serial_interpenetration_check",
            KernelCounters(
                flops=180.0 * contacts.m,
                global_bytes_read=300.0 * contacts.m,
                global_bytes_written=24.0 * contacts.m,
                threads=1, warps=1,
            ),
        )
        return update
