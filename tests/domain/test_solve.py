"""Distributed SpMV and PCG: bit-identity and the priced ledger."""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.domain.solve import DistributedOperand
from repro.gpu.counters import KernelCounters
from repro.gpu.device import K40
from repro.gpu.memory import coalesced_transactions
from repro.obs.metrics import MetricsRegistry
from repro.solvers.cg import _vector_ops_counters, pcg
from repro.solvers.preconditioners import make_preconditioner
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix

N, M = 14, 24


def setup(matrix, n_domains, metrics=None):
    labels = np.arange(matrix.n, dtype=np.int64) * n_domains // matrix.n
    dmap = DomainMap.from_labels(labels, n_domains)
    plan = build_exchange_plan(dmap, matrix.rows, matrix.cols)
    exchanger = HaloExchanger(
        dmap, plan, make_domain_devices(n_domains, K40), metrics=metrics
    )
    split = split_matrix(matrix, dmap, plan)
    return split, exchanger


def solve_distributed(split, exchanger, b, **kwargs):
    """The one loop over the distributed operand."""
    return pcg(DistributedOperand(split, exchanger), b, **kwargs)


class TestDomainSpmv:
    @pytest.mark.parametrize("n_domains", [1, 2, 3, 4, 8])
    def test_bitwise_equal_to_global_spmv(self, n_domains):
        matrix = synthetic_block_matrix(N, M, seed=3)
        split, ex = setup(matrix, n_domains)
        rng = np.random.default_rng(5)
        x = rng.normal(size=N * BS)
        ref = hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(matrix), x)
        y = split.op(ex.exchange(ex.scatter(x)))
        np.testing.assert_array_equal(y, ref)

    def test_empty_offdiag(self):
        matrix = synthetic_block_matrix(4, 0, seed=0)
        split, ex = setup(matrix, 2)
        x = np.arange(4.0 * BS)
        ref = hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(matrix), x)
        y = split.op(ex.exchange(ex.scatter(x)))
        np.testing.assert_array_equal(y, ref)

    def test_cost_recorded_on_device(self):
        matrix = synthetic_block_matrix(N, M, seed=3)
        split, ex = setup(matrix, 2)
        DistributedOperand(split, ex).matvec(np.ones(N * BS))
        for device in ex.devices:
            times = device.time_by_module()
            assert times.get("equation_solving", 0.0) > 0.0


class TestDistributedPcg:
    @pytest.mark.parametrize("n_domains", [1, 2, 4])
    def test_identity_bit_identical_to_serial(self, n_domains):
        matrix = synthetic_block_matrix(N, M, seed=11)
        split, ex = setup(matrix, n_domains)
        rng = np.random.default_rng(2)
        b = rng.normal(size=N * BS)
        ref = pcg(HSBCSRMatrix.from_block_matrix(matrix), b, tol=1e-10)
        res = solve_distributed(split, ex, b, tol=1e-10)
        assert res.iterations == ref.iterations
        assert res.converged and ref.converged
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.residuals == ref.residuals

    @pytest.mark.parametrize("name", ["jacobi", "bj", "ssor"])
    def test_wrapped_preconditioners_bit_identical(self, name):
        matrix = synthetic_block_matrix(N, M, seed=11)
        split, ex = setup(matrix, 3)
        rng = np.random.default_rng(2)
        b = rng.normal(size=N * BS)
        ref = pcg(
            HSBCSRMatrix.from_block_matrix(matrix), b,
            preconditioner=make_preconditioner(name, matrix), tol=1e-10,
        )
        pre = make_preconditioner(name, matrix)
        res = solve_distributed(split, ex, b, preconditioner=pre, tol=1e-10)
        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.residuals == ref.residuals

    def test_warm_start_bit_identical(self):
        matrix = synthetic_block_matrix(N, M, seed=11)
        split, ex = setup(matrix, 2)
        rng = np.random.default_rng(4)
        b = rng.normal(size=N * BS)
        x0 = rng.normal(size=N * BS)
        ref = pcg(HSBCSRMatrix.from_block_matrix(matrix), b, x0=x0, tol=1e-10)
        res = solve_distributed(split, ex, b, x0=x0, tol=1e-10)
        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.x, ref.x)

    def test_zero_rhs_short_circuits(self):
        matrix = synthetic_block_matrix(N, M, seed=1)
        split, ex = setup(matrix, 2)
        res = solve_distributed(split, ex, np.zeros(N * BS))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_validation(self):
        matrix = synthetic_block_matrix(N, M, seed=1)
        split, ex = setup(matrix, 2)
        with pytest.raises(ValueError):
            solve_distributed(split, ex, np.zeros(3))
        with pytest.raises(ValueError, match="tol"):
            solve_distributed(split, ex, np.ones(N * BS), tol=0.0)
        with pytest.raises(ValueError, match="max_iterations"):
            solve_distributed(split, ex, np.ones(N * BS), max_iterations=0)

    def test_observes_metrics(self):
        metrics = MetricsRegistry()
        matrix = synthetic_block_matrix(N, M, seed=1)
        split, ex = setup(matrix, 2, metrics=metrics)
        rng = np.random.default_rng(0)
        solve_distributed(split, ex, rng.normal(size=N * BS), metrics=metrics)
        assert metrics.counter("domain.halo_bytes").value > 0


# ----------------------------------------------------------------------
# the priced solve leaves the ledger per-call launches would have left
# ----------------------------------------------------------------------
class LaunchOracle:
    """``pcg``'s control flow over the operand replayed with one plain
    ``launch`` per kernel on fresh devices — counters rebuilt at every
    call, the way the solve metered itself before it priced once."""

    def __init__(self, split, exchanger, preconditioner):
        self.split = split
        self.dmap, self.plan = exchanger.dmap, exchanger.plan
        self.preconditioner = preconditioner
        self.devices = make_domain_devices(self.dmap.n_domains, K40)
        self.n_loc = [own.size * BS for own in self.dmap.owned]

    def transfer(self, d, name, nbytes):
        if self.dmap.n_domains > 1:
            self.devices[d].launch(
                name,
                KernelCounters(
                    global_bytes_read=float(nbytes),
                    global_txn_read=nbytes / 128.0,
                ),
                module="halo_exchange",
            )

    def owned(self, name):
        for d, n in enumerate(self.n_loc):
            self.transfer(d, name, n * 8)

    def allreduce(self):
        for d in range(self.dmap.n_domains):
            self.transfer(d, "pcie_allreduce", 8)

    def exchange(self):
        for src, dst, ids in self.plan.sends:
            self.transfer(src, "pcie_halo_send", ids.size * BS * 8)
            self.transfer(dst, "pcie_halo_recv", ids.size * BS * 8)

    def compute(self, d, name, counters):
        self.devices[d].launch(name, counters, module="equation_solving")

    def spmv(self):
        self.exchange()
        for d, own in enumerate(self.dmap.owned):
            m = int(self.split.m_up[d] + self.split.m_low[d])
            n = own.size
            if m:
                self.compute(d, "domain_spmv_offdiag", KernelCounters(
                    flops=2.0 * m * 36,
                    global_bytes_read=m * 36 * 8.0 + m * 8.0,
                    global_bytes_written=n * 6 * 8.0,
                    global_txn_read=coalesced_transactions(m * 36, 8)
                    + coalesced_transactions(m, 8),
                    global_txn_written=coalesced_transactions(n * 6, 8),
                    texture_bytes=2.0 * m * 6 * 8.0,
                    shared_accesses=2.0 * m * 6,
                    threads=m * 6,
                    warps=max(1, m * 6 // 32),
                ))
            self.compute(d, "domain_spmv_diag", KernelCounters(
                flops=2.0 * n * 36,
                global_bytes_read=n * 36 * 8.0 + n * 6 * 8.0,
                global_bytes_written=n * 6 * 8.0,
                global_txn_read=coalesced_transactions(n * 36, 8)
                + coalesced_transactions(n * 6, 8),
                global_txn_written=coalesced_transactions(n * 6, 8),
                texture_bytes=float(n * 6 * 8),
                threads=n * 6,
                warps=max(1, n * 6 // 32),
            ))

    def vector_ops(self, name, lengths, ops):
        for d, n in enumerate(lengths):
            self.compute(d, name, _vector_ops_counters(n, ops))

    def precondition(self):
        name = self.preconditioner
        if name in ("none", "bj"):
            self.vector_ops("precond_apply_local", self.n_loc, 2)
        else:
            for d, n in enumerate(self.n_loc):
                self.transfer(d, "pcie_precond_gather", n * 8)
                self.transfer(d, "pcie_precond_scatter", n * 8)

    def solve(self, res, zero_rhs):
        self.owned("pcie_scatter_owned")  # b
        self.owned("pcie_scatter_owned")  # x0
        self.allreduce()
        if not zero_rhs:
            self.spmv()
            self.allreduce()
        if not zero_rhs and (res.iterations or not res.converged):
            self.precondition()
            self.allreduce()
            for it in range(1, res.iterations + 1):
                last = it == res.iterations
                self.spmv()
                self.allreduce()
                if last and res.breakdown:
                    break
                self.vector_ops("cg_vector_ops", self.n_loc, 5)
                self.allreduce()
                if last and res.converged:
                    break
                self.precondition()
                self.allreduce()
        self.owned("pcie_gather_owned")
        return self.devices


def ledger(device):
    return [
        (r.name, r.module, repr(r.seconds), r.counters)
        for r in device.records
    ]


PRECONDITIONERS = ["none", "bj", "ssor"]


def priced_solve(name, n_domains, matrix=None, rhs=None, **kwargs):
    """One solve; its result, its devices and the oracle's devices."""
    if matrix is None:
        matrix = synthetic_block_matrix(N, M, seed=11, coupling=0.4)
    if rhs is None:
        rhs = np.random.default_rng(2).normal(size=matrix.n * BS)
    split, ex = setup(matrix, n_domains)
    pre = None if name == "none" else make_preconditioner(name, matrix)
    res = solve_distributed(split, ex, rhs, preconditioner=pre, **kwargs)
    oracle = LaunchOracle(split, ex, name).solve(res, not rhs.any())
    return res, ex.devices, oracle


def assert_same_ledgers(devices, oracle):
    assert len(devices) == len(oracle)
    for ours, theirs in zip(devices, oracle):
        assert ledger(ours) == ledger(theirs)


@pytest.mark.parametrize("n_domains", [1, 2, 4])
@pytest.mark.parametrize("name", PRECONDITIONERS)
class TestPricedLedger:
    def test_converged_solve(self, name, n_domains):
        res, devices, oracle = priced_solve(name, n_domains, tol=1e-10)
        assert res.converged and res.iterations >= 1
        assert_same_ledgers(devices, oracle)
        crossed = "halo_exchange" in devices[0].time_by_module()
        assert crossed == (n_domains > 1)

    def test_iteration_cap(self, name, n_domains):
        res, devices, oracle = priced_solve(
            name, n_domains, tol=1e-12, max_iterations=2
        )
        assert (res.iterations, res.converged) == (2, False)
        assert_same_ledgers(devices, oracle)

    def test_zero_rhs_exit(self, name, n_domains):
        res, devices, oracle = priced_solve(
            name, n_domains, rhs=np.zeros(N * BS)
        )
        assert res.converged and res.iterations == 0
        assert_same_ledgers(devices, oracle)
        assert all(
            r.name.startswith("pcie_") for d in devices for r in d.records
        )

    def test_converged_at_iteration_zero_exit(self, name, n_domains):
        exact, _, _ = priced_solve(name, n_domains, tol=1e-12)
        res, devices, oracle = priced_solve(
            name, n_domains, x0=exact.x, tol=1e-6
        )
        assert res.converged and res.iterations == 0
        assert res.residuals == []
        assert_same_ledgers(devices, oracle)
        assert "domain_spmv_diag" in devices[0].time_by_kernel()


@pytest.mark.parametrize("n_domains", [1, 2, 4])
def test_breakdown_exit_ledger(n_domains):
    """``p @ A p <= 0`` on an indefinite matrix: the solve stops after
    the first iteration's SpMV and its all-reduce."""
    spd = synthetic_block_matrix(N, M, seed=11)
    indefinite = BlockMatrix(
        n=spd.n, diag=-spd.diag, rows=spd.rows, cols=spd.cols,
        blocks=spd.blocks,
    )
    res, devices, oracle = priced_solve("none", n_domains, matrix=indefinite)
    assert res.breakdown and not res.converged and res.iterations == 1
    assert_same_ledgers(devices, oracle)
    assert "cg_vector_ops" not in devices[0].time_by_kernel()


#: ``(launches(), repr(total_time))`` per device of the 4-domain solve
#: of ``TestDistributedPcg``'s system (seed 11, ``tol=1e-10``), recorded
#: at commit 4aa70ac — the last one that priced every launch at its call.
PARENT_LEDGERS = {
    "bj": [
        (88, "0.0006148618779956426"), (104, "0.0007430749934640519"),
        (104, "0.0007430851111111108"), (88, "0.000614613816993464"),
    ],
    "ssor": [
        (59, "0.0004306450718954249"), (69, "0.0005107417690631808"),
        (69, "0.0005107845925925927"), (59, "0.00043045353376906315"),
    ],
}


@pytest.mark.parametrize("name", PARENT_LEDGERS)
def test_ledger_totals_recorded_at_the_parent(name):
    matrix = synthetic_block_matrix(N, M, seed=11)
    _, devices, _ = priced_solve(name, 4, matrix=matrix, tol=1e-10)
    assert [
        (d.launches(), repr(d.total_time)) for d in devices
    ] == PARENT_LEDGERS[name]


@pytest.mark.parametrize("name", PRECONDITIONERS)
def test_a_long_solve_shares_a_handful_of_records(name):
    """Hundreds of iterations (200 unpreconditioned; the others until
    the residual underflows), thousands of ledger positions per device,
    and only the records priced before the loop: 1 all-reduce, <= 6
    send/recv, 2 SpMV, 1 vector pass, <= 2 preconditioner, 2 + 1
    scatter/gather. Per-call construction coming back fails this."""
    res, devices, oracle = priced_solve(
        name, 4, matrix=synthetic_block_matrix(60, 150, seed=11, coupling=0.4),
        tol=1e-300, max_iterations=200,
    )
    assert res.iterations == 200 if name == "none" else res.iterations > 50
    for device in devices:
        assert device.launches() > 8 * res.iterations
        assert len({id(r) for r in device.records}) <= 16
    assert_same_ledgers(devices, oracle)
