import pytest

from repro.domain.halo import TRANSFER, make_domain_devices
from repro.gpu.counters import KernelCounters
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice


class TestVirtualDevice:
    def test_launch_records_and_returns_time(self):
        dev = VirtualDevice(K40)
        t = dev.launch("k", KernelCounters(flops=1e9))
        assert t > 0
        assert dev.launches() == 1
        assert dev.total_time == pytest.approx(t)

    def test_region_attribution(self):
        dev = VirtualDevice(K40)
        with dev.region("equation_solving"):
            dev.launch("spmv", KernelCounters(flops=1.0))
        dev.launch("misc", KernelCounters(flops=1.0))
        by_mod = dev.time_by_module()
        assert "equation_solving" in by_mod
        assert "other" in by_mod

    def test_explicit_module_overrides_region(self):
        dev = VirtualDevice(K40)
        with dev.region("a"):
            dev.launch("k", KernelCounters(), module="b")
        assert "b" in dev.time_by_module()

    def test_nested_regions(self):
        dev = VirtualDevice(K40)
        with dev.region("outer"):
            with dev.region("inner"):
                dev.launch("k", KernelCounters())
        assert list(dev.time_by_module()) == ["inner"]

    def test_total_counters_sum(self):
        dev = VirtualDevice(K40)
        dev.launch("a", KernelCounters(flops=2.0))
        dev.launch("b", KernelCounters(flops=3.0, atomic_ops=1.0))
        total = dev.total_counters
        assert total.flops == 5.0
        assert total.atomic_ops == 1.0

    def test_time_by_kernel_groups(self):
        dev = VirtualDevice(K40)
        dev.launch("k", KernelCounters(flops=1.0))
        dev.launch("k", KernelCounters(flops=1.0))
        assert len(dev.time_by_kernel()) == 1

    def test_reset(self):
        dev = VirtualDevice(K40)
        dev.launch("k", KernelCounters())
        dev.reset()
        assert dev.launches() == 0
        assert dev.total_time == 0.0


# ----------------------------------------------------------------------
# the ledger seam: launch == price + record
# ----------------------------------------------------------------------
DEVICES = {
    "plain": lambda: VirtualDevice(K40),
    # a RoutedVirtualDevice: ``pcie_*`` on TRANSFER, the rest on K40
    "routed": lambda: make_domain_devices(1, K40)[0],
}

WORK = KernelCounters(
    flops=3e6, global_bytes_read=4.8e5, global_txn_read=3750.0,
    global_bytes_written=9.6e4, global_txn_written=750.0, threads=2e4,
    warps=625.0,
)


def _fields(record):
    return (
        record.name, record.module, repr(record.seconds), record.counters
    )


@pytest.mark.parametrize("kind", ["plain", "routed"])
class TestPriceAndRecord:
    @pytest.mark.parametrize("name", ["spmv", "pcie_halo_send"])
    @pytest.mark.parametrize("module", [None, "equation_solving"])
    def test_launch_is_price_then_record(self, kind, name, module):
        launched, recorded = DEVICES[kind](), DEVICES[kind]()
        seconds = launched.launch(name, WORK, module=module)
        priced = recorded.price(name, WORK, module=module)
        assert recorded.launches() == 0
        recorded.record((priced,))
        assert _fields(launched.records[0]) == _fields(recorded.records[0])
        assert recorded.records[0] is priced
        assert repr(priced.seconds) == repr(seconds)

    def test_routed_names_are_priced_on_their_profile(self, kind):
        dev = DEVICES[kind]()
        transfer = dev.price("pcie_allreduce", WORK).seconds
        compute = dev.price("allreduce", WORK).seconds
        assert compute == K40.kernel_time(WORK)
        assert transfer == (
            TRANSFER if kind == "routed" else K40
        ).kernel_time(WORK)
        assert TRANSFER.kernel_time(WORK) != K40.kernel_time(WORK)

    def test_price_resolves_the_region_now_and_appends_nothing(self, kind):
        dev = DEVICES[kind]()
        with dev.region("outer"):
            inherited = dev.price("k", WORK)
            explicit = dev.price("k", WORK, module="given")
        assert dev.launches() == 0
        with dev.region("elsewhere"):
            dev.record((inherited, explicit))
        assert [r.module for r in dev.records] == ["outer", "given"]
        assert dev.price("k", WORK).module is None

    def test_one_record_k_times_is_k_launches(self, kind):
        k = 37
        launched, recorded = DEVICES[kind](), DEVICES[kind]()
        for dev in (launched, recorded):
            dev.launch("head", KernelCounters(flops=7.0), module="a")
        shared = tuple(
            recorded.price(name, WORK, module="equation_solving")
            for name in ("spmv", "pcie_allreduce")
        )
        for _ in range(k):
            recorded.record(shared)
            for name in ("spmv", "pcie_allreduce"):
                launched.launch(name, WORK, module="equation_solving")
        assert len({id(r) for r in recorded.records}) == 3
        assert recorded.launches() == launched.launches() == 2 * k + 1
        assert repr(recorded.total_time) == repr(launched.total_time)
        assert recorded.time_by_module() == launched.time_by_module()
        assert recorded.time_by_kernel() == launched.time_by_kernel()
        assert recorded.total_counters == launched.total_counters
        assert [r.counters for r in recorded.records] == [
            r.counters for r in launched.records
        ]
        assert recorded.launches_since(1) == launched.launches_since(1)
        # the slice is the priced records themselves, ready to record again
        assert recorded.launches_since(2 * k - 1) == shared

    def test_a_record_is_immutable(self, kind):
        priced = DEVICES[kind]().price("k", WORK, module="m")
        for name in ("name", "module", "counters", "seconds"):
            with pytest.raises(AttributeError):
                setattr(priced, name, getattr(priced, name))
