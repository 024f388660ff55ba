"""Distributed SpMV and PCG: bit-identity and the priced ledger."""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    TRANSFER,
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.domain.solve import DistributedOperand
from repro.gpu.counters import KernelCounters
from repro.gpu.device import E5620, K40
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
def offdiag_counters(m, n):
    """``m`` off-diagonal entries (both halves) written into ``n`` rows."""
    return KernelCounters(
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
    )


def diag_counters(n):
    """The diagonal blocks of ``n`` rows."""
    return KernelCounters(
        flops=2.0 * n * 36,
        global_bytes_read=n * 36 * 8.0 + n * 6 * 8.0,
        global_bytes_written=n * 6 * 8.0,
        global_txn_read=coalesced_transactions(n * 36, 8)
        + coalesced_transactions(n * 6, 8),
        global_txn_written=coalesced_transactions(n * 6, 8),
        texture_bytes=float(n * 6 * 8),
        threads=n * 6,
        warps=max(1, n * 6 // 32),
    )


def transfer_counters(nbytes):
    return KernelCounters(
        global_bytes_read=float(nbytes), global_txn_read=nbytes / 128.0
    )


def row_counts(matrix, labels, n_domains):
    """Per domain ``(m, n, m_interior, n_interior)``: off-diagonal
    entries of both halves and rows, all and interior. A row is interior
    when no stored entry couples it to another domain's block."""
    rows, cols = matrix.rows, matrix.cols
    cut = labels[rows] != labels[cols]
    interior = np.ones(matrix.n, dtype=bool)
    interior[rows[cut]] = interior[cols[cut]] = False
    out = []
    for d in range(n_domains):
        entry_rows = [r for r in np.concatenate([rows, cols]) if labels[r] == d]
        own = [i for i in range(matrix.n) if labels[i] == d]
        out.append((
            len(entry_rows), len(own),
            sum(bool(interior[r]) for r in entry_rows),
            sum(bool(interior[i]) for i in own),
        ))
    return out


def interior_seconds(m_in, n_in, n, profile=K40):
    """What a device multiplies while its ghosts are in flight: its
    interior rows' off-diagonal entries, then its whole diagonal."""
    off = profile.kernel_time(offdiag_counters(m_in, n_in)) if m_in else 0.0
    return off + profile.kernel_time(diag_counters(n))


class LaunchOracle:
    """``pcg``'s control flow over the operand replayed with one plain
    ``launch`` per kernel on fresh devices — counters rebuilt at every
    call — under the schedule of a multi-device CG:

    * an exchange is posted, the interior rows and the diagonal are
      multiplied while it is in flight, and a device pays only the
      transfers still running when they finish (in plan order);
    * ``r·r`` and ``r·z`` share one two-word all-reduce after
      ``z = M r``, so a converged exit still pays for that application
      and that all-reduce; ``p·Ap`` is its own;
    * one device moves nothing and speculates nothing.
    """

    def __init__(self, split, exchanger, preconditioner):
        self.dmap, self.plan = exchanger.dmap, exchanger.plan
        self.preconditioner = preconditioner
        self.devices = make_domain_devices(self.dmap.n_domains, K40)
        self.n_loc = [own.size * BS for own in self.dmap.owned]
        self.counts = row_counts(
            split.matrix, self.dmap.labels, self.dmap.n_domains
        )
        self.several = self.dmap.n_domains > 1

    def transfer(self, d, name, nbytes):
        if self.several:
            self.devices[d].launch(
                name, transfer_counters(nbytes), module="halo_exchange"
            )

    def owned(self, name):
        for d, n in enumerate(self.n_loc):
            self.transfer(d, name, n * 8)

    def allreduce(self, words=1):
        for d in range(self.dmap.n_domains):
            self.transfer(d, "pcie_allreduce", 8 * words)

    def exchange(self):
        hidden = [interior_seconds(m_in, n_in, n)
                  for _, n, m_in, n_in in self.counts]
        for src, dst, ids in self.plan.sends:
            for d, name in ((src, "pcie_halo_send"), (dst, "pcie_halo_recv")):
                self.transfer(d, name, ids.size * BS * 8)
                record = self.devices[d].records[-1]
                cover = min(record.seconds, hidden[d])
                hidden[d] -= cover
                self.devices[d].records[-1] = record._replace(
                    seconds=record.seconds - cover
                )

    def compute(self, d, name, counters):
        self.devices[d].launch(name, counters, module="equation_solving")

    def spmv(self):
        self.exchange()
        for d, (m, n, _, _) in enumerate(self.counts):
            if m:
                self.compute(d, "domain_spmv_offdiag", offdiag_counters(m, n))
            self.compute(d, "domain_spmv_diag", diag_counters(n))

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
        self.allreduce()  # b·b
        if not zero_rhs:
            self.spmv()
            if res.iterations or not res.converged or self.several:
                self.precondition()
                self.allreduce(2)  # r·r with r·z
            for it in range(1, res.iterations + 1):
                last = it == res.iterations
                self.spmv()
                self.allreduce()  # p·Ap
                if last and res.breakdown:
                    break
                self.vector_ops("cg_vector_ops", self.n_loc, 5)
                if last and res.converged and not self.several:
                    break
                self.precondition()
                self.allreduce(2)  # r·r with r·z
        self.owned("pcie_gather_owned")
        return self.devices


#: Devices whose interior product leaves part of the exchange exposed,
#: on the domain engine's (serial-CPU) profile.
EXPOSED = {
    "synthetic": {2: 2, 4: 4, 8: 8},
    "slope": {2: 0, 4: 2, 8: 8},
}


@pytest.mark.parametrize("kind", EXPOSED)
@pytest.mark.parametrize("n_domains", [2, 4, 8])
def test_exposed_halo_is_what_the_interior_product_leaves(
    kind, n_domains, slope_partitions
):
    """Per device and exchange: the transfer seconds charged are
    ``max(0, halo - interior)``, each transfer keeping its bytes. The
    117-block slope hides every exchange at two domains, the outer two
    devices' at four and none at eight; the small synthetic system
    hides none."""
    if kind == "slope":
        matrix, labels = slope_partitions[0], slope_partitions[1][n_domains]
    else:
        matrix = synthetic_block_matrix(N, M, seed=11, coupling=0.4)
        labels = np.arange(N, dtype=np.int64) * n_domains // N
    dmap = DomainMap.from_labels(labels, n_domains)
    plan = build_exchange_plan(dmap, matrix.rows, matrix.cols)
    ex = HaloExchanger(dmap, plan, make_domain_devices(n_domains, E5620))
    DistributedOperand(split_matrix(matrix, dmap, plan), ex).matvec(
        np.ones(matrix.n * BS)
    )
    exposed = []
    for d, (_, n, m_in, n_in) in enumerate(row_counts(matrix, labels, n_domains)):
        sent = [
            transfer_counters(ids.size * BS * 8)
            for src, dst, ids in plan.sends if d in (src, dst)
        ]
        halo = sum(TRANSFER.kernel_time(c) for c in sent)
        moved = [
            r for r in ex.devices[d].records if r.name.startswith("pcie_halo_")
        ]
        assert [r.counters for r in moved] == sent
        charged = sum(r.seconds for r in moved)
        hidden = interior_seconds(m_in, n_in, n, E5620)
        assert charged == pytest.approx(max(0.0, halo - hidden), rel=1e-12)
        exposed.append(charged > 0.0)
    assert sum(exposed) == EXPOSED[kind][n_domains]


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


#: ``(launches(), repr(seconds))`` of the solve of ``TestDistributedPcg``'s
#: system (seed 11, ``tol=1e-10``), recorded at commit 434e1e1 — before
#: the exchange overlapped the interior product and ``r·r`` / ``r·z``
#: shared an all-reduce: per device of the 4-domain solve, its compute
#: records (every ``pcie_*`` transfer dropped); and the whole 1-domain
#: ledger.
PARENT_LEDGERS = {
    "bj": ([
        (30, "0.00015051054466230936"), (30, "0.00015054366013071897"),
        (30, "0.0001505417777777778"), (30, "0.00015033848366013074"),
    ], (30, "0.0001517781699346405")),
    "ssor": ([
        (14, "7.02797385620915e-05"), (14, "7.03004357298475e-05"),
        (14, "7.029925925925926e-05"), (14, "7.017220043572985e-05"),
    ], (14, "7.097755991285403e-05")),
}


@pytest.mark.parametrize("name", PARENT_LEDGERS)
def test_ledger_totals_recorded_at_the_parent(name):
    """Overlap and fusion re-price transfers; the one compute record
    they add is the converged exit's speculative application, which
    only the block-local ``bj`` launches. One device is untouched."""
    matrix = synthetic_block_matrix(N, M, seed=11)
    res, devices, _ = priced_solve(name, 4, matrix=matrix, tol=1e-10)
    assert res.converged
    compute = []
    for device in devices:
        records = [r for r in device.records if not r.name.startswith("pcie_")]
        if name == "bj":
            assert records[-1].name == "precond_apply_local"
            records = records[:-1]
        compute.append((len(records), repr(sum(r.seconds for r in records))))
    assert compute == PARENT_LEDGERS[name][0]
    _, (single,), _ = priced_solve(name, 1, matrix=matrix, tol=1e-10)
    assert (single.launches(), repr(single.total_time)) == PARENT_LEDGERS[name][1]


@pytest.mark.parametrize("name", PRECONDITIONERS)
def test_a_long_solve_shares_a_handful_of_records(name):
    """Hundreds of iterations (200 unpreconditioned; the others until
    the residual underflows), thousands of ledger positions per device,
    and only the records priced before the loop: 2 all-reduces (one and
    two words), <= 6 send/recv, 2 SpMV, 1 vector pass, <= 2
    preconditioner, 2 + 1 scatter/gather. Per-call construction coming
    back fails this."""
    res, devices, oracle = priced_solve(
        name, 4, matrix=synthetic_block_matrix(60, 150, seed=11, coupling=0.4),
        tol=1e-300, max_iterations=200,
    )
    assert res.iterations == 200 if name == "none" else res.iterations > 50
    for device in devices:
        assert device.launches() > 8 * res.iterations
        assert len({id(r) for r in device.records}) <= 16
    assert_same_ledgers(devices, oracle)
