import pytest

from repro.gpu.counters import KernelCounters
from repro.gpu.device import E5620, K20, K40, DeviceProfile


class TestProfiles:
    def test_k40_matches_paper_intro_numbers(self):
        assert K40.peak_flops_dp == pytest.approx(1.43e12)
        assert K40.mem_bandwidth == pytest.approx(288e9)

    def test_k40_faster_than_k20(self):
        c = KernelCounters(
            flops=1e9, global_bytes_read=1e9, global_txn_read=1e9 / 128
        )
        assert K40.kernel_time(c) < K20.kernel_time(c)

    def test_cpu_has_no_launch_overhead(self):
        assert E5620.kernel_time(KernelCounters()) == 0.0
        assert K40.kernel_time(KernelCounters()) == K40.launch_overhead

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DeviceProfile(
                name="x", kind="tpu", peak_flops_dp=1, mem_bandwidth=1,
                shared_throughput=1, texture_bandwidth=1, transaction_bytes=128,
                launch_overhead=0, warp_size=32, num_sms=1,
            )

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError, match="efficiency"):
            DeviceProfile(
                name="x", kind="gpu", peak_flops_dp=1, mem_bandwidth=1,
                shared_throughput=1, texture_bandwidth=1, transaction_bytes=128,
                launch_overhead=0, warp_size=32, num_sms=1, efficiency=1.5,
            )


class TestTimingModel:
    def test_memory_bound_kernel_scales_with_bytes(self):
        small = KernelCounters(global_txn_read=1e6)
        large = KernelCounters(global_txn_read=2e6)
        dt_small = K40.kernel_time(small) - K40.launch_overhead
        dt_large = K40.kernel_time(large) - K40.launch_overhead
        assert dt_large == pytest.approx(2 * dt_small)

    def test_divergence_waste_charged_as_compute(self):
        base = KernelCounters(flops=1e10)
        wasted = KernelCounters(flops=1e10, wasted_lane_flops=1e10)
        assert K40.kernel_time(wasted) > K40.kernel_time(base)

    def test_uncoalesced_charged_by_transactions(self):
        # same useful bytes, different transaction counts
        good = KernelCounters(global_bytes_read=1e8, global_txn_read=1e8 / 128)
        bad = KernelCounters(global_bytes_read=1e8, global_txn_read=1e8 / 8)
        assert K40.kernel_time(bad) > K40.kernel_time(good)

    def test_gpu_beats_cpu_on_large_parallel_work(self):
        c = KernelCounters(
            flops=1e10, global_bytes_read=1e9, global_txn_read=1e9 / 128
        )
        assert K40.kernel_time(c) < E5620.kernel_time(c)

    def test_cpu_beats_gpu_on_tiny_kernels(self):
        # launch overhead dominates tiny work — the reason the paper keeps
        # the whole pipeline on the device instead of bouncing tiny kernels
        c = KernelCounters(flops=100.0, global_bytes_read=800.0)
        assert E5620.kernel_time(c) < K40.kernel_time(c)

    def test_atomics_add_time(self):
        base = KernelCounters(flops=1e6)
        with_atomics = KernelCounters(flops=1e6, atomic_ops=1e6)
        assert K40.kernel_time(with_atomics) > K40.kernel_time(base)
