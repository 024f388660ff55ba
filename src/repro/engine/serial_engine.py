"""The Fig.-1 serial pipeline (the paper's CPU baseline).

The *modelled cost* of every stage is the serial formulation's: a
single-core loop on the E5620 profile (:data:`CPU_CHARGES`). The
*numerics* are the shared stage bodies of
:class:`~repro.engine.base.EngineBase`, run with no device — the same
kernels, in the same order, as the GPU preset, so the two presets' step
records and vertices are bit-equal and differ only in what each stage
costs. The loops themselves survive as the test oracles that pin the
kernels (``tests/contact/broad_phase_oracle.py``,
``tests/engine/oracles.py``).
"""

from __future__ import annotations

import numpy as np

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


def _detection(device, size) -> None:
    """The serial detection loops, from ``(system, n_pairs, m_previous, m)``."""
    system, n_pairs, m_previous, m = size
    n = system.n_blocks
    # n(n-1)/2 AABB tests, ~8 flops and 64 bytes each
    _single_core("broad_phase", 8.0, 64.0)(device, n * (n - 1) / 2.0)
    # every vertex pair of every candidate pair, both ways
    avg_v = float(np.diff(system.offsets).mean())
    rows = 2.0 * n_pairs * avg_v * avg_v
    _single_core(
        "narrow_phase", 54.0 * rows + 40.0 * m, 96.0 * rows, 64.0 * m
    )(device)
    _single_core("contact_transfer", 10.0, 48.0)(device, m_previous + m)
    _single_core("contact_init", 48.0, 112.0, 32.0)(device, m)


_nondiag = _single_core("nondiagonal_build", 3 * 36 * 4 + 200.0, 500.0, 3 * 36.0 * 8)
_scatter = _single_core("scatter_assembly", 36.0, 36.0 * 8, 36.0 * 8)

#: Every stage a single-core loop; assembly one scatter pass over the
#: diagonal and contact contributions.
CPU_CHARGES = Charges(
    detection=_detection,
    # mass integrals + elastic + fixed springs per block
    diagonal=_single_core("diagonal_build", 700.0, 400.0, 36.0 * 8),
    nondiagonal=lambda device, contacts: _nondiag(device, contacts.m),
    assembly=lambda device, plan: _scatter(
        device, plan.diag_perm.size + plan.perm.size
    ),
    interpenetration=_single_core("interpenetration_check", 180.0, 300.0, 24.0),
    update=_single_core("data_update", 30.0, 16.0, 16.0),
)


class SerialEngine(EngineBase):
    """Serial CPU pipeline (paper Fig. 1)."""

    default_profile: DeviceProfile = E5620
    charges = CPU_CHARGES
