"""Virtual GPU execution substrate.

The paper runs its pipeline on NVIDIA Tesla K20/K40 GPUs. No GPU is
available in this environment, so this subpackage provides the documented
substitution (see DESIGN.md §2): every "kernel" in the repository executes
its real algorithm with vectorised NumPy, structured the way the CUDA kernel
would be (warp-sized tiles, two-stage reductions, slice-aligned accesses),
while recording *modelled* work into :class:`~repro.gpu.counters.KernelCounters`:

* floating point operations (useful + divergence-wasted lanes),
* global-memory transactions under the 128-byte coalescing rule,
* shared-memory accesses and bank conflicts (set by each kernel's model),
* texture-cache reads,
* warp counts and divergent-branch counts.

A :class:`~repro.gpu.device.DeviceProfile` (K20, K40, or the E5620 CPU
profile for the serial baseline) converts the counters into a
roofline-style time estimate, and :class:`~repro.gpu.kernel.VirtualDevice`
keeps the per-kernel ledger that the benchmark harness reads.
"""

from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, K20, K40, E5620
from repro.gpu.kernel import VirtualDevice, KernelRecord
from repro.gpu.warp import divergence_stats, WARP_SIZE
from repro.gpu.memory import (
    coalesced_transactions,
    gather_transactions,
)

__all__ = [
    "KernelCounters",
    "DeviceProfile",
    "K20",
    "K40",
    "E5620",
    "VirtualDevice",
    "KernelRecord",
    "divergence_stats",
    "WARP_SIZE",
    "coalesced_transactions",
    "gather_transactions",
]
