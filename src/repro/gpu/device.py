"""Device profiles and the roofline-style kernel timing model.

Profiles carry the published specifications of the paper's hardware:

* **Tesla K20** — 13 SMX, 2496 CUDA cores, 1.17 Tflop/s DP peak, 208 GB/s.
* **Tesla K40** — 15 SMX, 2880 CUDA cores, 1.43 Tflop/s DP peak, 288 GB/s
  (the paper quotes exactly these K40 numbers in its introduction).
* **Xeon E5620** — the serial CPU baseline: one core of a 2.4 GHz Westmere,
  modelled at ~2 DP Gflop/s sustained scalar throughput and ~6 GB/s
  effective single-stream memory bandwidth.

The timing model is deliberately simple and documented: a kernel's time is
``launch_overhead + max(compute, global memory, shared memory)`` with SIMT
divergence charged as extra compute and uncoalesced access charged as extra
transactions. A global ``efficiency`` de-rating keeps estimates at realistic
(not peak) throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.counters import KernelCounters


@dataclass(frozen=True)
class DeviceProfile:
    """A compute device for the analytical timing model.

    Attributes
    ----------
    name:
        Human-readable device name.
    kind:
        ``"gpu"`` (parallel, SIMT penalties apply) or ``"cpu"``
        (serial, no launch overhead, no divergence penalty).
    peak_flops_dp:
        Peak double-precision flop/s.
    mem_bandwidth:
        Global/DRAM bandwidth in bytes/s.
    shared_throughput:
        Shared-memory accesses per second the device sustains
        (GPU only; ignored for CPUs).
    texture_bandwidth:
        Effective bandwidth of texture-path reads (cached gathers).
    transaction_bytes:
        Global-memory transaction granularity (128 B on Kepler).
    launch_overhead:
        Fixed cost per kernel launch, seconds.
    warp_size:
        SIMT width.
    num_sms:
        Streaming multiprocessors (informational; occupancy effects are
        folded into ``efficiency``).
    efficiency:
        De-rating from peak to sustained throughput (0 < e <= 1).
    atomic_cost:
        Seconds per serialized global atomic.
    """

    name: str
    kind: str
    peak_flops_dp: float
    mem_bandwidth: float
    shared_throughput: float
    texture_bandwidth: float
    transaction_bytes: int
    launch_overhead: float
    warp_size: int
    num_sms: int
    efficiency: float = 0.6
    atomic_cost: float = 2.0e-9

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "cpu"):
            raise ValueError(f"kind must be 'gpu' or 'cpu', got {self.kind!r}")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        for attr in ("peak_flops_dp", "mem_bandwidth"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    # ------------------------------------------------------------------
    # timing model
    # ------------------------------------------------------------------
    def kernel_time(self, c: KernelCounters) -> float:
        """Estimated execution time in seconds for one kernel launch."""
        if self.kind == "cpu":
            return self._cpu_time(c)
        return self._gpu_time(c)

    def _gpu_time(self, c: KernelCounters) -> float:
        flops = c.flops + c.wasted_lane_flops
        compute = flops / (self.peak_flops_dp * self.efficiency)
        txn_bytes = c.total_transactions * self.transaction_bytes
        # Coalesced traffic pays for issued transactions; if a kernel only
        # recorded useful bytes (no transaction model) fall back to those.
        global_bytes = max(txn_bytes, c.total_global_bytes)
        mem = global_bytes / (self.mem_bandwidth * self.efficiency)
        mem += c.texture_bytes / (self.texture_bandwidth * self.efficiency)
        shared = 0.0
        if self.shared_throughput > 0:
            shared = (
                c.shared_accesses + c.shared_bank_conflict_extra
            ) / (self.shared_throughput * self.efficiency)
        atomics = c.atomic_ops * self.atomic_cost
        return self.launch_overhead + max(compute, mem, shared) + atomics

    def _cpu_time(self, c: KernelCounters) -> float:
        # Serial execution: compute and memory do not overlap as cleanly as
        # on the GPU's deep pipelines; charge their sum. Divergence waste
        # does not exist on a scalar core, shared memory is the cache.
        compute = c.flops / (self.peak_flops_dp * self.efficiency)
        mem = c.total_global_bytes / (self.mem_bandwidth * self.efficiency)
        return compute + mem


#: Tesla K20 (GK110): 13 SMX, 208 GB/s, 1.17 Tflop/s DP.
K20 = DeviceProfile(
    name="Tesla K20",
    kind="gpu",
    peak_flops_dp=1.17e12,
    mem_bandwidth=208e9,
    shared_throughput=1.0e12,
    texture_bandwidth=250e9,
    transaction_bytes=128,
    launch_overhead=5e-6,
    warp_size=32,
    num_sms=13,
    efficiency=0.6,
)

#: Tesla K40 (GK110B): 15 SMX, 288 GB/s, 1.43 Tflop/s DP — the exact numbers
#: quoted in the paper's introduction.
K40 = DeviceProfile(
    name="Tesla K40",
    kind="gpu",
    peak_flops_dp=1.43e12,
    mem_bandwidth=288e9,
    shared_throughput=1.25e12,
    texture_bandwidth=340e9,
    transaction_bytes=128,
    launch_overhead=5e-6,
    warp_size=32,
    num_sms=15,
    efficiency=0.6,
)

#: Intel Xeon E5620 — one core at 2.4 GHz, the paper's serial baseline.
#: Sustained scalar DP throughput of a Westmere core is ~1 mul+add per
#: cycle in the best case; serial DDA code with branches sustains far less.
E5620 = DeviceProfile(
    name="Xeon E5620 (1 core, serial)",
    kind="cpu",
    peak_flops_dp=2.4e9,
    mem_bandwidth=6.0e9,
    shared_throughput=0.0,
    texture_bandwidth=6.0e9,
    transaction_bytes=64,
    launch_overhead=0.0,
    warp_size=1,
    num_sms=1,
    efficiency=0.5,
)
