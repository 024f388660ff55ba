"""What one CG iteration pays on the host, and what it writes on the ledger.

The launches an iteration charges — the SpMV's, the fused vector pass,
the preconditioner application — have sizes fixed by the matrix, so
each is priced once per device and region and the same records are
re-recorded every iteration (:class:`repro.gpu.kernel.PricedLaunches`).
These pins hold that ledger to per-call pricing, record for record, and
count the work a BJ iteration does: three compiled products (the SpMV's
two stages and the block-Jacobi product) and no pricing.
"""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS
from repro.engine.hybrid_engine import PCIE
from repro.gpu.device import E5620, K20, K40
from repro.gpu.kernel import RoutedVirtualDevice, VirtualDevice
from repro.primitives.scatter import BlockRowProduct, GatherSegmentSum
from repro.solvers.cg import pcg
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    make_preconditioner,
)
from repro.spmv.hsbcsr import HSBCSRMatrix
from repro.spmv.synthetic import synthetic_block_matrix


class PerCall(VirtualDevice):
    """A device that prices every recorded launch again, now."""

    def record(self, priced):
        for r in priced:
            self.launch(r.name, r.counters)


class RoutedPerCall(PerCall, RoutedVirtualDevice):
    pass


#: (device the solve runs on, device that re-prices every launch)
DEVICES = {
    "plain": (lambda: VirtualDevice(K40), lambda: PerCall(K40)),
    # the hybrid engine's routes
    "hybrid": (
        lambda: RoutedVirtualDevice(K40, {"serial_": E5620, "pcie_": PCIE}),
        lambda: RoutedPerCall(K40, {"serial_": E5620, "pcie_": PCIE}),
    ),
    # routes that price the solve's own kernels off the base profile
    "routed-solve": (
        lambda: RoutedVirtualDevice(K40, {"bj_": E5620, "cg_": K20}),
        lambda: RoutedPerCall(K40, {"bj_": E5620, "cg_": K20}),
    ),
}


def ledger(device):
    return [
        (r.name, r.module, r.seconds.hex(), r.counters) for r in device.records
    ]


@pytest.fixture
def system():
    a = synthetic_block_matrix(20, 45, seed=7)
    b = np.random.default_rng(3).normal(size=a.n * BS)
    return a, b


def solve(a, b, device, preconditioner="bj", **kw):
    with device.region("equation_solving"):
        pre = (
            IdentityPreconditioner() if preconditioner == "none"
            else make_preconditioner(preconditioner, a, device)
        )
        return pcg(
            HSBCSRMatrix.from_block_matrix(a), b, preconditioner=pre,
            device=device, **kw,
        )


@pytest.mark.parametrize("kind", sorted(DEVICES))
@pytest.mark.parametrize("preconditioner", ["none", "bj", "ssor"])
def test_a_solve_ledger_is_per_call_pricing(system, kind, preconditioner):
    a, b = system
    make, make_per_call = DEVICES[kind]
    cached, per_call = make(), make_per_call()
    res = solve(a, b, cached, preconditioner, tol=1e-10)
    ref = solve(a, b, per_call, preconditioner, tol=1e-10)
    assert res.iterations == ref.iterations > 3
    assert ledger(cached) == ledger(per_call)
    assert {r.module for r in cached.records} == {"equation_solving"}


@pytest.mark.parametrize("preconditioner", ["bj", "ssor"])
def test_an_apply_records_the_region_and_device_it_runs_under(
    system, preconditioner
):
    a, b = system
    pre = make_preconditioner(preconditioner, a)
    k40, k20 = VirtualDevice(K40), VirtualDevice(K20)
    for device, module in ((k40, "a"), (k40, "b"), (k40, "a"), (k20, "a")):
        with device.region(module):
            pre.apply(b, device)
    assert [r.module for r in k40.records] == ["a", "b", "a"]
    assert [r.module for r in k20.records] == ["a"]
    # and each device prices at its own profile
    assert k20.records[0].seconds == k20.price(
        k20.records[0].name, k20.records[0].counters
    ).seconds != k40.records[0].seconds


@pytest.fixture
def work(monkeypatch):
    """Count compiled-product calls and ``VirtualDevice.price`` calls."""
    counts = {"products": 0, "prices": 0}
    for cls in (BlockRowProduct, GatherSegmentSum):
        call = cls.__call__

        def counted(self, x, call=call):
            counts["products"] += 1
            return call(self, x)

        monkeypatch.setattr(cls, "__call__", counted)
    price = VirtualDevice.price

    def priced(self, *args, **kw):
        counts["prices"] += 1
        return price(self, *args, **kw)

    monkeypatch.setattr(VirtualDevice, "price", priced)
    return counts


def test_a_bj_iteration_is_three_compiled_products_and_no_pricing(system, work):
    a, b = system
    totals = []
    for iterations in (1, 6):
        work.update(products=0, prices=0)
        res = solve(a, b, VirtualDevice(K40), tol=1e-300,
                    max_iterations=iterations)
        assert res.iterations == iterations and not res.converged
        totals.append(dict(work))
    first, later = totals
    # HSBCSR's two stages and the BJ application's block product
    assert later["products"] - first["products"] == 3 * 5
    assert later["prices"] == first["prices"]
