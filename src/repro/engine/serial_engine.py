"""The Fig.-1 serial pipeline (the paper's CPU baseline).

The *modelled cost* of every stage is the serial formulation's: a
single-core loop on the E5620 profile (:data:`CPU_CHARGES`, and the
detection charges below). The *numerics* are the shared vectorised
kernels, the broad phase's pairs sorted into the double loop's order;
the loops themselves survive as the test oracles that pin them
(``tests/contact/broad_phase_oracle.py``, ``tests/engine/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.contact.broad_phase import broad_phase_pairs, sort_pairs
from repro.contact.contact_set import ContactSet
from repro.contact.initialization import initialize_contacts_unclassified
from repro.contact.narrow_phase import narrow_phase
from repro.contact.transfer import transfer_contacts
from repro.engine.base import Charges, EngineBase
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, E5620


def _single_core(name: str, flops: float, read: float, written: float = 0.0):
    """The charge of a single-core loop doing ``flops`` / reading
    ``read`` / writing ``written`` bytes per unit of size, recorded as
    ``serial_<name>`` (the hybrid's route to its host profile)."""

    def charge(device, size=1) -> None:
        device.launch(
            f"serial_{name}",
            KernelCounters(
                flops=flops * size,
                global_bytes_read=read * size,
                global_bytes_written=written * size,
                threads=1, warps=1,
            ),
        )

    return charge


_nondiag = _single_core("nondiagonal_build", 3 * 36 * 4 + 200.0, 500.0, 3 * 36.0 * 8)
_scatter = _single_core("scatter_assembly", 36.0, 36.0 * 8, 36.0 * 8)

#: Every stage a single-core loop; assembly one scatter pass over the
#: diagonal and contact contributions.
CPU_CHARGES = Charges(
    # mass integrals + elastic + fixed springs per block
    diagonal=_single_core("diagonal_build", 700.0, 400.0, 36.0 * 8),
    nondiagonal=lambda device, contacts: _nondiag(device, contacts.m),
    assembly=lambda device, plan: _scatter(
        device, plan.diag_idx.size + plan.off_rows.size
    ),
    interpenetration=_single_core("interpenetration_check", 180.0, 300.0, 24.0),
    update=_single_core("data_update", 30.0, 16.0, 16.0),
)


class SerialEngine(EngineBase):
    """Serial CPU pipeline (paper Fig. 1)."""

    default_profile: DeviceProfile = E5620
    charges = CPU_CHARGES

    def _detect_contacts(self) -> ContactSet:
        """The serial pipeline's detection: the same vectorised kernels
        as the GPU preset, uncharged, under analytic ``serial_*`` costs;
        the narrow phase's candidate rows come from the same kept
        :class:`~repro.contact.narrow_phase.CandidatePlan`."""
        system, device = self.system, self.device
        # the vectorised kernel, uncharged, in the serial double loop's
        # lexicographic pair order
        i, j = sort_pairs(
            *broad_phase_pairs(system.aabbs, self.contact_threshold)
        )
        n = system.n_blocks
        # n(n-1)/2 AABB tests, ~8 flops and 64 bytes each
        _single_core("broad_phase", 8.0, 64.0)(device, n * (n - 1) / 2.0)
        contacts = narrow_phase(
            system, i, j, self.contact_threshold, tol=self.tolerances,
            candidates=self._narrow_candidates(i, j),
        )
        # every vertex pair of every candidate pair, both ways
        avg_v = float(np.diff(system.offsets).mean())
        rows = 2.0 * i.size * avg_v * avg_v
        _single_core(
            "narrow_phase", 54.0 * rows + 40.0 * contacts.m, 96.0 * rows,
            64.0 * contacts.m,
        )(device)
        contacts = transfer_contacts(
            self._contacts, contacts, system.vertices.shape[0],
            metrics=self.metrics,
        )
        _single_core("contact_transfer", 10.0, 48.0)(
            device, self._contacts.m + contacts.m
        )
        contacts = initialize_contacts_unclassified(
            system, contacts, self.controls.penalty_scale
        )
        _single_core("contact_init", 48.0, 112.0, 32.0)(device, contacts.m)
        return contacts
