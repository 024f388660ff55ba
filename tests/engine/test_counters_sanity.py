"""Sanity checks of the virtual-device ledgers produced by full runs."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.engine.base as engine_base
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import build_brick_wall
from repro.util.timing import PIPELINE_MODULES


@pytest.fixture(scope="module")
def gpu_run():
    engine = GpuEngine(
        build_brick_wall(3, 4),
        SimulationControls(time_step=5e-4, dynamic=True),
    )
    return engine.run(steps=5), engine


@pytest.fixture(scope="module")
def serial_run():
    engine = SerialEngine(
        build_brick_wall(3, 4),
        SimulationControls(time_step=5e-4, dynamic=True),
    )
    return engine.run(steps=5), engine


class TestLedgerSanity:
    def test_all_counters_finite_nonnegative(self, gpu_run):
        result, _ = gpu_run
        for record in result.device.records:
            for f in dataclasses.fields(record.counters):
                v = getattr(record.counters, f.name)
                assert np.isfinite(v), (record.name, f.name)
                assert v >= 0.0, (record.name, f.name)

    def test_every_kernel_has_positive_time(self, gpu_run):
        result, _ = gpu_run
        assert all(r.seconds > 0 for r in result.device.records)

    def test_every_module_present(self, gpu_run):
        result, _ = gpu_run
        modeled = result.modeled_module_times()
        for module in PIPELINE_MODULES:
            assert module in modeled, module
            assert modeled[module] > 0

    def test_no_unattributed_kernels(self, gpu_run):
        result, _ = gpu_run
        assert "other" not in result.device.time_by_module()

    def test_wall_times_cover_modules(self, gpu_run):
        result, _ = gpu_run
        for module in PIPELINE_MODULES:
            assert result.module_times.times[module] > 0

    def test_counters_scale_with_steps(self):
        def total_flops(steps):
            e = GpuEngine(
                build_brick_wall(3, 4),
                SimulationControls(time_step=5e-4, dynamic=True),
            )
            r = e.run(steps=steps)
            return r.device.total_counters.flops

        f2, f6 = total_flops(2), total_flops(6)
        # roughly linear in steps; early steps run extra open–close sweeps
        # so sublinearity up to ~2x is expected
        assert 1.5 < f6 / f2 < 4.5

    def test_serial_ledger_single_threaded(self, serial_run):
        result, _ = serial_run
        # serial kernels report warp width 1 (no SIMT parallelism claimed)
        for record in result.device.records:
            if record.name.startswith("serial_"):
                assert record.counters.warps <= 1

    def test_serial_profile_is_cpu(self, serial_run):
        _, engine = serial_run
        assert engine.device.profile.kind == "cpu"

    def test_gpu_profile_is_gpu(self, gpu_run):
        _, engine = gpu_run
        assert engine.device.profile.kind == "gpu"

    def test_divergence_only_from_divergent_kernels(self, gpu_run):
        result, _ = gpu_run
        total = result.device.total_counters
        assert total.divergent_branch_regions <= total.branch_regions


class TestRejectedAttempts:
    """Loop 2's thrown-away attempts are counted by cause, with the CG
    iterations they burned (``StepRecord.cg_iterations`` is the accepted
    attempt only); ``result.rejected`` holds one record per attempt, and
    the counters tally the records."""

    def test_rejections_by_cause_and_discarded_iterations(self):
        from repro.meshing.slope_models import build_slope_model

        engine = GpuEngine(
            build_slope_model(joint_spacing=5.0, seed=0),
            SimulationControls(
                time_step=2e-3, dynamic=False, gravity=9.81,
                penalty_scale=50.0, preconditioner="bj",
            ),
        )
        result = engine.run(steps=3)
        snap = engine.metrics.snapshot()
        counters = snap["counters"]
        by_cause = {
            name.rsplit(".", 1)[1]: n
            for name, n in counters.items()
            if name.startswith("engine.step_rejected.")
        }
        # attempt 0 of step 0 (counts 180, 533, 759, 810) diverges and
        # stops at sweep 4; the other four run to the cap
        assert by_cause == {
            "cg_non_convergence": 0, "cg_breakdown": 0,
            "open_close_oscillation": 4, "max_displacement": 0,
            "open_close_divergence": 1,
        }
        assert sum(by_cause.values()) == counters["engine.step_retries"]
        assert [s.retries for s in result.steps] == [4, 1, 0]
        # total and accepted iterations no longer disagree silently
        accepted = sum(s.cg_iterations for s in result.steps)
        discarded = counters["engine.rejected_cg_iterations"]
        # 2186 discarded before the diverging attempt stopped at sweep 4;
        # (287, 1934) and retries [4, 0, 1] before warm sweeps and the
        # compiled preconditioner products (commit 5253207)
        assert (accepted, discarded) == (136, 1717)
        assert accepted + discarded == snap["histograms"]["cg.iterations"]["sum"]
        rejected = result.rejected
        assert Counter(a.cause for a in rejected) == {
            "open_close_oscillation": 4, "open_close_divergence": 1,
        }
        assert sum(a.cg_iterations for a in rejected) == 1717
        assert len(rejected) == sum(s.retries for s in result.steps) == 5

    def test_a_starved_solver_is_the_named_cause(self, monkeypatch):
        monkeypatch.setattr(engine_base, "CG_TOLERANCE", 1e-300)
        monkeypatch.setattr(engine_base, "CG_MAX_ITERATIONS", 5)
        engine = SerialEngine(
            build_brick_wall(2, 2),
            SimulationControls(time_step=1e-3, dynamic=True),
        )
        result = engine.run(steps=1)
        (record,) = result.steps
        counters = engine.metrics.snapshot()["counters"]
        assert record.retries == 6
        assert counters["engine.step_rejected.cg_non_convergence"] == 6
        assert counters["engine.step_rejected.open_close_oscillation"] == 0
        # the sixth attempt's sweep 1 converges, so its sweep 2 starts warm
        # and the cold restart runs: 63 at commit 5253207, which started
        # sweep 2 from the zero vector and skipped it
        assert counters["engine.rejected_cg_iterations"] == 68
        assert [a.cause for a in result.rejected] == ["cg_non_convergence"] * 6
        assert sum(a.cg_iterations for a in result.rejected) == 68
