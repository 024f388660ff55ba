import numpy as np
import pytest

from repro.assembly.global_matrix import BS
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.solvers.cg import DeviceOperand, pcg
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    make_preconditioner,
)
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix


@pytest.fixture
def system(rng):
    a = synthetic_block_matrix(15, 35, seed=21)
    x_true = rng.normal(size=a.n * BS)
    return a, x_true, a.matvec(x_true)


class TestPCG:
    def test_solves_unpreconditioned(self, system):
        a, x_true, b = system
        res = pcg(a, b, tol=1e-10, max_iterations=500)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("name", ["bj", "ssor", "ilu"])
    def test_solves_with_each_preconditioner(self, system, name):
        a, x_true, b = system
        m = make_preconditioner(name, a)
        res = pcg(a, b, preconditioner=m, tol=1e-10, max_iterations=500)
        assert res.converged, name
        np.testing.assert_allclose(res.x, x_true, rtol=1e-5, atol=1e-6)

    def test_accepts_prebuilt_hsbcsr(self, system):
        a, x_true, b = system
        h = HSBCSRMatrix.from_block_matrix(a)
        res = pcg(h, b, tol=1e-10, max_iterations=500)
        assert res.converged

    def test_warm_start_reduces_iterations(self, system, rng):
        a, x_true, b = system
        cold = pcg(a, b, tol=1e-10, max_iterations=500)
        near = x_true + 1e-6 * rng.normal(size=x_true.size)
        warm = pcg(a, b, x0=near, tol=1e-10, max_iterations=500)
        assert warm.iterations < cold.iterations

    def test_exact_start_zero_iterations(self, system):
        a, x_true, b = system
        res = pcg(a, b, x0=x_true, tol=1e-8)
        assert res.iterations == 0
        assert res.converged

    def test_zero_rhs(self, system):
        a, _, _ = system
        res = pcg(a, np.zeros(a.n * BS))
        assert res.converged
        np.testing.assert_array_equal(res.x, 0.0)

    def test_iteration_cap_reported(self, system):
        a, _, b = system
        res = pcg(a, b, tol=1e-16, max_iterations=3)
        assert res.iterations == 3
        assert not res.converged

    def test_residual_history_monotonic_enough(self, system):
        a, _, b = system
        res = pcg(a, b, tol=1e-10, max_iterations=500)
        assert len(res.residuals) == res.iterations
        assert res.residuals[-1] < res.residuals[0]

    def test_invalid_args(self, system):
        a, _, b = system
        with pytest.raises(ValueError):
            pcg(a, b, tol=0.0)
        with pytest.raises(ValueError):
            pcg(a, b, max_iterations=0)

    def test_device_records_spmv_per_iteration(self, system, device):
        a, _, b = system
        res = pcg(a, b, tol=1e-10, max_iterations=500, device=device)
        by_kernel = device.time_by_kernel()
        assert "hsbcsr_stage1" in by_kernel


class TestPreconditionerOrdering:
    def test_iteration_ordering_matches_table1(self):
        # Table I: ILU converges fastest, then SSOR-AI, then BJ
        a = synthetic_block_matrix(40, 110, seed=2, coupling=0.6)
        rng = np.random.default_rng(0)
        b = a.matvec(rng.normal(size=a.n * BS))
        iters = {}
        for name in ("bj", "ssor", "ilu"):
            m = make_preconditioner(name, a)
            res = pcg(a, b, preconditioner=m, tol=1e-10, max_iterations=1000)
            assert res.converged, name
            iters[name] = res.iterations
        assert iters["ilu"] <= iters["ssor"] <= iters["bj"]

    def test_bj_total_time_beats_ilu_on_gpu_model(self):
        # Table I's punchline: despite more iterations, BJ's total modelled
        # equation-solving time beats ILU's because TSS dominates
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        a = synthetic_block_matrix(40, 110, seed=2, coupling=0.6)
        rng = np.random.default_rng(0)
        b = a.matvec(rng.normal(size=a.n * BS))
        times = {}
        for name in ("bj", "ilu"):
            dev = VirtualDevice(K40)
            m = make_preconditioner(name, a, dev)
            res = pcg(a, b, preconditioner=m, tol=1e-10,
                      max_iterations=1000, device=dev)
            assert res.converged
            times[name] = dev.total_time
        assert times["bj"] < times["ilu"]


#: What one device records, as kernel names: the initial residual (the
#: SpMV, then the update kernel) and one iteration.
RESIDUAL = ["hsbcsr_stage1", "hsbcsr_stage2", "cg_update"]
ITERATION = ["cg_direction", "hsbcsr_stage1", "hsbcsr_stage2", "cg_update"]


class ReadLog(DeviceOperand):
    """Logs the last launch recorded when each scalar reaches the host."""

    def wrap(self, preconditioner):
        self.reads = []
        return super().wrap(preconditioner)

    def reduced(self, words=1):
        records = self.device.records
        self.reads.append((words, records[-1].name if records else None))


class TestIterationLedger:
    """One device's ledger ends a launch exactly where the host reads a
    scalar: ``p·Ap`` after stage 2, ``r·r`` with ``r·z`` after the update
    kernel (block-Jacobi) or the application that forms ``r·z``."""

    def solve(self, system, name, device):
        a, _, b = system
        operand = ReadLog(HSBCSRMatrix.from_block_matrix(a), device)
        res = pcg(operand, b, preconditioner=make_preconditioner(name, a),
                  tol=1e-10, max_iterations=500)
        assert res.converged and res.iterations > 3
        return res, operand.reads, [r.name for r in device.records]

    def test_a_bj_iteration_is_four_launches(self, system, device):
        res, reads, names = self.solve(system, "bj", device)
        assert names == RESIDUAL + ITERATION * res.iterations
        assert device.launches() == 4 * res.iterations + 3
        # b·b, then r·r with r·z; per iteration p·Ap, then r·r with r·z
        # (the converged exit reads r·r alone)
        assert reads == [(1, None), (2, "cg_update")] + [
            (1, "hsbcsr_stage2"), (2, "cg_update"),
        ] * (res.iterations - 1) + [(1, "hsbcsr_stage2")]

    def test_ssor_ai_adds_its_apply_launch(self, system, device):
        res, reads, names = self.solve(system, "ssor", device)
        # the converged exit applies no preconditioner
        assert names == RESIDUAL + ["ssor_ai_apply"] + (
            ITERATION + ["ssor_ai_apply"]
        ) * (res.iterations - 1) + ITERATION
        assert device.launches() == 5 * res.iterations + 3
        assert reads[1:3] == [(2, "ssor_ai_apply"), (1, "hsbcsr_stage2")]

    def test_kernels_are_their_parts_without_the_round_trips(
        self, system, device
    ):
        a, _, b = system
        n = a.n * BS
        self.solve(system, "bj", device)
        cg = {r.name: r.counters for r in device.records}
        # the parts, each a kernel reading its operands from memory
        probe = VirtualDevice(K40)
        hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), b, probe)
        BlockJacobiPreconditioner(a).apply(b, probe)
        _, spmv_stage2, bj = (r.counters for r in probe.records)
        # stage 2 adds the p·Ap partial: p read once, a multiply-add
        assert cg["hsbcsr_stage2"].global_bytes_read == (
            spmv_stage2.global_bytes_read + 8 * n
        )
        assert cg["hsbcsr_stage2"].flops == spmv_stage2.flops + 2 * n
        # update = (x += αp, r −= αAp, r·r: x p r Ap in, x r out)
        #        + bj_apply (M r in, z out) + r·z (r z in),
        # less the r and z round trips: r read back by bj_apply and r·z,
        # z by r·z
        update = cg["cg_update"]
        assert update.global_bytes_read == (
            8 * 4 * n + bj.global_bytes_read + 8 * 2 * n - 8 * 3 * n
        )
        assert update.global_bytes_written == 8 * 2 * n + bj.global_bytes_written
        assert update.flops == 6 * n + bj.flops + 2 * n
        # the direction pass p = z + βp: z and p in, p out
        assert cg["cg_direction"].global_bytes_read == 8 * 2 * n
        assert cg["cg_direction"].global_bytes_written == 8 * n


def allocating_pcg(a, b, x0, m, tol, max_iterations):
    """The iteration with a fresh array per statement (``p = z + beta *
    p``, ``x = x + alpha * p``): what the in-place loop of ``pcg`` must
    reproduce bit for bit over either operand."""
    h = HSBCSRMatrix.from_block_matrix(a)
    x = np.zeros(b.size) if x0 is None else x0.copy()
    b_norm = float(np.sqrt(b @ b))
    r = b - hsbcsr_spmv(h, x)
    z = m.apply(r, None)
    p = z.copy()
    rz = float(r @ z)
    residuals = []
    for _ in range(max_iterations):
        ap = hsbcsr_spmv(h, p)
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        residuals.append(float(np.sqrt(r @ r)) / b_norm)
        if residuals[-1] < tol:
            break
        z = m.apply(r, None)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, residuals


class TestInPlaceIteration:
    """Table-I matrix and preconditioners: the allocation-free loop
    equals the allocating formulation, serial and on four domains."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name", ["bj", "ssor", "ilu"])
    def test_equals_allocating_reference(self, name, warm):
        from repro.domain.assembly import split_matrix
        from repro.domain.halo import (
            DomainMap, HaloExchanger, build_exchange_plan, make_domain_devices,
        )
        from repro.domain.solve import DistributedOperand
        from repro.gpu.device import K40

        a = synthetic_block_matrix(40, 110, seed=2, coupling=0.6)
        rng = np.random.default_rng(0)
        b = a.matvec(rng.normal(size=a.n * BS))
        x0 = rng.normal(size=a.n * BS) if warm else None
        x, residuals = allocating_pcg(
            a, b, x0, make_preconditioner(name, a), 1e-10, 1000
        )
        assert 2 < len(residuals) < 1000

        serial = pcg(a, b, x0=x0, preconditioner=make_preconditioner(name, a),
                     tol=1e-10, max_iterations=1000)
        dmap = DomainMap.from_labels(np.arange(a.n, dtype=np.int64) * 4 // a.n, 4)
        plan = build_exchange_plan(dmap, a.rows, a.cols)
        exchanger = HaloExchanger(dmap, plan, make_domain_devices(4, K40))
        split = split_matrix(a, dmap, plan)
        distributed = pcg(
            DistributedOperand(split, exchanger), b, x0=x0,
            preconditioner=make_preconditioner(name, a),
            tol=1e-10, max_iterations=1000,
        )
        for res in (serial, distributed):
            assert res.converged and res.iterations == len(residuals)
            assert res.residuals == residuals
            np.testing.assert_array_equal(res.x, x)
        if warm:  # the caller's warm start is not the iterate
            assert not np.shares_memory(serial.x, x0)


class RecordingOperand:
    """A dense NumPy matrix behind the operand protocol, logging every
    call ``pcg`` makes — nothing else of an operand is defined here, so
    the loop reaching outside the protocol is an ``AttributeError``."""

    device = None

    def __init__(self, dense):
        self.dense = dense
        self.n_dof = dense.shape[0]
        self.calls = []

    def wrap(self, preconditioner):
        assert preconditioner is None
        self.calls.append("wrap")
        return self

    def apply(self, r, device):  # the wrapped (identity) preconditioner
        assert device is self.device
        self.calls.append("apply")
        return r.copy()

    def begin(self, b, x):
        self.calls.append("begin")

    def matvec(self, v):
        self.calls.append("matvec")
        return self.dense @ v

    def reduced(self, words=1):
        self.calls.append(f"reduced{words}")

    def converged(self, preconditioner):
        assert preconditioner is self
        self.calls.append("converged")

    def vector_ops(self):
        self.calls.append("vector_ops")

    def finish(self, x):
        self.calls.append("finish")
        return x


def expected_calls(res, zero_rhs):
    """The sequence ``tests/domain/test_solve.py::LaunchOracle.solve``
    encodes for the distributed ledger, as operand calls: ``r @ r`` and
    ``r @ z`` reduced together after ``z = M r``, a passing test in
    their place."""
    calls = ["wrap", "begin", "reduced1"]  # ||b||
    if not zero_rhs:
        calls += ["matvec"]  # initial residual
        for it in range(res.iterations + 1):
            last = it == res.iterations
            if it:
                calls += ["matvec", "reduced1"]  # p @ Ap
                if last and res.breakdown:
                    break
                calls += ["vector_ops"]
            if last and res.converged:
                calls += ["converged"]
                break
            calls += ["apply", "reduced2"]  # ||r|| with r @ z
    return calls + ["finish"]


class TestOperandProtocol:
    """``pcg`` depends on nothing outside the operand protocol."""

    @pytest.fixture
    def dense(self, system):
        return system[0].to_dense()

    def test_converges_to_the_dense_solution(self, dense, system):
        _, _, b = system
        operand = RecordingOperand(dense)
        res = pcg(operand, b, tol=1e-12, max_iterations=500)
        assert res.converged and res.iterations > 2
        np.testing.assert_allclose(
            res.x, np.linalg.solve(dense, b), rtol=1e-8, atol=1e-9
        )
        assert operand.calls == expected_calls(res, zero_rhs=False)

    def test_zero_rhs_exit(self, dense):
        operand = RecordingOperand(dense)
        res = pcg(operand, np.zeros(operand.n_dof))
        assert res.converged and res.iterations == 0
        assert operand.calls == ["wrap", "begin", "reduced1", "finish"]
        assert operand.calls == expected_calls(res, zero_rhs=True)

    def test_converged_at_iteration_zero_exit(self, dense, system):
        _, x_true, b = system
        operand = RecordingOperand(dense)
        res = pcg(operand, b, x0=x_true, tol=1e-6)
        assert res.converged and res.iterations == 0
        assert operand.calls == [
            "wrap", "begin", "reduced1", "matvec", "converged", "finish",
        ]
        assert operand.calls == expected_calls(res, zero_rhs=False)

    def test_breakdown_exit(self, dense, system):
        _, _, b = system
        operand = RecordingOperand(-dense)
        res = pcg(operand, b)
        assert res.breakdown and not res.converged and res.iterations == 1
        assert "vector_ops" not in operand.calls
        assert operand.calls == expected_calls(res, zero_rhs=False)

    def test_iteration_cap_exit(self, dense, system):
        _, _, b = system
        operand = RecordingOperand(dense)
        res = pcg(operand, b, tol=1e-16, max_iterations=3)
        assert (res.iterations, res.converged) == (3, False)
        assert operand.calls.count("vector_ops") == 3
        assert operand.calls == expected_calls(res, zero_rhs=False)

    def test_an_operand_carries_its_own_device(self, dense, system, device):
        _, _, b = system
        with pytest.raises(ValueError, match="device"):
            pcg(RecordingOperand(dense), b, device=device)
