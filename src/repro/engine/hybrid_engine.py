"""The hybrid CPU–GPU pipeline (the paper's predecessor, ref [10]).

"A hybrid CPU-GPU-based DDA with contact detection, equation solving, and
interpenetration checking on a GPU was reported; however, the massive
data transmission between the CPU and the GPU limited the speed-up rate
by 2 to 10 times."

This engine reproduces that design point: the three heavy modules run on
the GPU, matrix building and data updating stay on the CPU, and every
hand-over crosses PCIe — geometry up before detection, contacts down
after, the assembled matrix up before each solve, the solution down after,
state flags down after interpenetration checking. The bench comparing it
against :class:`~repro.engine.serial_engine.SerialEngine` and
:class:`~repro.engine.gpu_engine.GpuEngine` shows why the paper moved the
whole pipeline onto the device.
"""

from __future__ import annotations

from repro.assembly.global_matrix import BS
from repro.contact.contact_set import ContactSet
from repro.engine.gpu_engine import GPU_CHARGES, GpuEngine
from repro.engine.serial_engine import CPU_CHARGES
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, E5620
from repro.gpu.kernel import RoutedVirtualDevice

#: PCIe 2.0 x16 era transfer profile (the hardware of ref [10]):
#: ~6 GB/s effective, ~10 us per transfer setup.
PCIE = DeviceProfile(
    name="PCIe 2.0 x16",
    kind="gpu",
    peak_flops_dp=1e18,      # transfers do no arithmetic
    mem_bandwidth=6e9,
    shared_throughput=0.0,
    texture_bandwidth=6e9,
    transaction_bytes=128,
    launch_overhead=10e-6,
    warp_size=1,
    num_sms=1,
    efficiency=1.0,
)


def _transfer(device, name: str, nbytes: float) -> None:
    """Record one host<->device copy of ``nbytes``."""
    device.launch(
        f"pcie_{name}",
        KernelCounters(
            global_bytes_read=float(nbytes),
            global_txn_read=float(nbytes) / 128.0,
        ),
    )


def _assembly(device, plan):
    """The CPU scatter, then the assembled system shipped to the device
    for the GPU solve — inside every open–close iteration, the transfer
    the paper's design eliminates."""
    CPU_CHARGES.assembly(device, plan)
    nnz_bytes = (plan.n + 2 * plan.out_rows.size) * BS * BS * 8.0
    _transfer(device, "h2d_matrix", nnz_bytes + plan.n * BS * 8.0)


class HybridEngine(GpuEngine):
    """Hybrid pipeline: GPU detection/solve/check, CPU build/update
    (:data:`~repro.engine.serial_engine.CPU_CHARGES`, priced on the
    :data:`~repro.gpu.device.E5620` host through the ``serial_`` route,
    transfers on :data:`PCIE` through the ``pcie_`` route)."""

    charges = CPU_CHARGES._replace(
        detection=GPU_CHARGES.detection,
        assembly=_assembly,
        interpenetration=GPU_CHARGES.interpenetration,
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.device = RoutedVirtualDevice(
            self.device.profile, routes={"serial_": E5620, "pcie_": PCIE}
        )

    # GPU modules, bracketed by transfers
    def _detect_contacts(self) -> ContactSet:
        v = self.system.vertices.shape[0]
        _transfer(self.device, "h2d_geometry", v * 16.0)
        contacts = super()._detect_contacts()
        # contact table comes back to the host for the CPU matrix build
        _transfer(self.device, "d2h_contacts", contacts.m * 88.0)
        return contacts

    def _check_interpenetration(self, contacts, d, prev_normal_force):
        # solution comes down for the CPU-side bookkeeping, state flags
        # come back after the GPU check
        _transfer(self.device, "d2h_solution", self.system.n_dof * 8.0)
        update = super()._check_interpenetration(
            contacts, d, prev_normal_force
        )
        _transfer(self.device, "d2h_states", contacts.m * 9.0)
        return update

    def transfer_time(self) -> float:
        """Total modelled seconds spent on PCIe transfers."""
        return sum(
            r.seconds for r in self.device.records
            if r.name.startswith("pcie_")
        )
