"""Resilience layer: taxonomy, fallback ladder, guards, checkpoint/rollback.

The headline scenario: a run that previously died with a bare
``RuntimeError`` on forced mid-run non-convergence now rolls back to the
last checkpoint, retries at a smaller dt, and completes (or returns a
partial result with an attached ``FailureReport``) — on all three
engines, with the fallback-ladder rung visible in the step records.
"""

import numpy as np
import pytest

import repro.engine.base as engine_base
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.physics import kinetic_energy
from repro.engine.resilience import (
    ENERGY_FACTOR,
    OSCILLATION_STREAK,
    PENETRATION_FACTOR,
    CheckpointCorrupt,
    CheckpointManager,
    HealthMonitor,
    NumericalBlowup,
    SimulationError,
    SolverBreakdown,
    StepContext,
    StepRejected,
    solver_ladder,
)
from repro.engine.results import StepRecord
from repro.engine.serial_engine import SerialEngine
from repro.solvers.cg import CGResult, pcg
from repro.solvers.preconditioners import stronger_preconditioner

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)

ENGINES = [SerialEngine, GpuEngine, HybridEngine]


def stacked():
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem([Block(base, MAT), Block(SQ + np.array([1.0, 1.0]), MAT)])
    s.fix_block(0)
    return s


def controls(**resilience_kwargs) -> SimulationControls:
    return SimulationControls(
        time_step=1e-3, dynamic=True, max_displacement_ratio=0.05,
        resilience=ResilienceControls(**resilience_kwargs),
    )


class FlakyPCG:
    """Wrap the real pcg, failing a chosen window of calls.

    Calls ``fail_from <= i < fail_from + fail_count`` (0-based) return a
    non-converged result without running CG; everything else passes
    through. Deterministic, so rollback-retries land on healed calls.
    """

    def __init__(self, fail_from: int, fail_count: int, breakdown=False):
        self.fail_from = fail_from
        self.fail_count = fail_count
        self.breakdown = breakdown
        self.calls = 0
        self.failed = 0
        self.rungs_seen: list[tuple[str, bool]] = []

    def __call__(self, a, b, x0=None, preconditioner=None, **kwargs):
        i = self.calls
        self.calls += 1
        self.rungs_seen.append(
            (getattr(preconditioner, "name", "none"), x0 is not None)
        )
        if self.fail_from <= i < self.fail_from + self.fail_count:
            self.failed += 1
            return CGResult(
                x=np.zeros(b.size), iterations=1, converged=False,
                residuals=[1.0], breakdown=self.breakdown,
            )
        return pcg(a, b, x0=x0, preconditioner=preconditioner, **kwargs)


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_hierarchy(self):
        for cls in (StepRejected, SolverBreakdown, NumericalBlowup,
                    CheckpointCorrupt):
            assert issubclass(cls, SimulationError)
            assert issubclass(cls, RuntimeError)
        # recoverability is fixed per class: a blow-up rolls back, a
        # corrupt checkpoint cannot be rolled back to
        assert NumericalBlowup("x", guard="finite").recoverable
        assert not CheckpointCorrupt("x").recoverable

    def test_context_carried_and_described(self):
        ctx = StepContext(step=7, dt=1e-4, retries=3,
                          cg_residuals=[0.5, 0.1], max_penetration=2e-3,
                          cause="cg_breakdown")
        err = SolverBreakdown("boom", ctx)
        assert err.context.step == 7
        text = err.context.describe()
        assert "step 7" in text and "cg_breakdown" in text
        assert "1.000e-01" in text  # last residual

    def test_step_rejection_carries_context(self, monkeypatch):
        monkeypatch.setattr(engine_base, "CG_TOLERANCE", 1e-300)
        monkeypatch.setattr(engine_base, "CG_MAX_ITERATIONS", 2)
        c = SimulationControls(
            time_step=1e-3, dynamic=True, max_displacement_ratio=0.05,
        )
        engine = GpuEngine(stacked(), c)
        with pytest.raises(StepRejected) as exc_info:
            engine.run(steps=1)
        ctx = exc_info.value.context
        assert ctx.step == 0
        assert ctx.retries == engine_base.MAX_STEP_RETRIES
        assert ctx.cause == "cg_non_convergence"
        assert len(ctx.cg_residuals) > 0


# ----------------------------------------------------------------------
# fallback ladder
# ----------------------------------------------------------------------
class TestFallbackLadder:
    def test_ladder_shape(self):
        assert solver_ladder("bj") == [
            ("bj", True), ("ssor", True), ("ssor", False),
        ]
        assert solver_ladder("ilu") == [("ilu", True), ("ilu", False)]

    def test_strength_order(self):
        assert stronger_preconditioner("bj") == "ssor"
        assert stronger_preconditioner("ilu") == "ilu"
        assert stronger_preconditioner("mystery") == "mystery"

    def test_rung_recorded_on_escalation(self, monkeypatch):
        # fail exactly the first solve: rung 0 rejected, rung 1 converges
        flaky = FlakyPCG(fail_from=0, fail_count=1)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = GpuEngine(stacked(), controls())
        result = engine.run(steps=3)
        assert result.steps[0].solver_rung == 1
        assert result.steps[0].retries == 0  # no dt-halving burned
        assert result.max_solver_rung == 1
        # the escalation used the stronger preconditioner
        assert flaky.rungs_seen[0] == ("bj", True)
        assert flaky.rungs_seen[1] == ("ssor", True)

    def test_cold_restart_rung(self, monkeypatch):
        # fail rungs 0 and 1 of step 2's solve (calls 0-1 are step 0's
        # two sweeps, call 2 is step 1): the warm start is a real
        # solution by then, so rung 2 must drop it
        flaky = FlakyPCG(fail_from=3, fail_count=2)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = GpuEngine(stacked(), controls())
        result = engine.run(steps=3)
        assert result.steps[2].solver_rung == 2
        assert flaky.rungs_seen[5] == ("ssor", False)
        assert engine.metrics.counter("solver.rungs_skipped").value == 0

    #: ``FlakyPCG`` window -> the solves the engine must make, in order,
    #: over two steps of the stacked pair (step 0 sweeps twice, step 1
    #: once; ``_prev_solution`` is the zero vector throughout step 0).
    #: columns: fail_from, fail_count, calls,
    #: step 0 (retries, solver_rung), rungs_skipped, rung_escalations
    LADDER_MEMORY = {
        # (i) rung 0 fails in sweep 0 -> sweep 1 starts at rung 1;
        # (ii) the next step starts at rung 0 again
        "a failed rung is not retried in the same attempt": (
            0, 1,
            [("bj", True), ("ssor", True), ("ssor", True), ("bj", True)],
            (0, 1), 1, 1,
        ),
        # (iii) rungs 0 and 1 fail on a zero warm start -> the cold
        # restart would be rung 1 again, so the attempt ends there;
        # (ii) the next loop-2 attempt starts at rung 0 again
        "a cold restart from a zero warm start is not run": (
            0, 2,
            [("bj", True), ("ssor", True), ("bj", True), ("bj", True),
             ("bj", True)],
            (1, 0), 1, 0,
        ),
        # both at once: the retry forgets attempt 0's ladder, climbs on
        # its own failure and remembers that for its second sweep
        "the memory is per attempt": (
            0, 3,
            [("bj", True), ("ssor", True), ("bj", True), ("ssor", True),
             ("ssor", True), ("bj", True)],
            (1, 1), 2, 1,
        ),
    }

    @pytest.mark.parametrize("case", LADDER_MEMORY)
    def test_ladder_memory(self, case, monkeypatch):
        (fail_from, fail_count, calls, step0, skipped,
         escalations) = self.LADDER_MEMORY[case]
        flaky = FlakyPCG(fail_from=fail_from, fail_count=fail_count)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = GpuEngine(stacked(), controls())
        result = engine.run(steps=2)
        assert flaky.rungs_seen == calls
        assert (result.steps[0].retries, result.steps[0].solver_rung) == step0
        counters = engine.metrics.snapshot()["counters"]
        assert counters["solver.rungs_skipped"] == skipped
        assert counters["solver.rung_escalations"] == escalations

    def _unbuildable_rung_1(self, monkeypatch, error):
        """Rung 0 fails to converge and rung 1's constructor raises."""
        flaky = FlakyPCG(fail_from=0, fail_count=1)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        real = engine_base.make_preconditioner
        built = []

        def construct(name, matrix, device=None):
            built.append(name)
            if built.count("ssor") == 1 and name == "ssor":
                raise error("planted")
            return real(name, matrix, device)

        monkeypatch.setattr(engine_base, "make_preconditioner", construct)
        return GpuEngine(stacked(), controls()), flaky

    def test_unbuildable_rung_is_skipped(self, monkeypatch):
        engine, flaky = self._unbuildable_rung_1(monkeypatch, ZeroDivisionError)
        result = engine.run(steps=1)
        assert result.steps[0].solver_rung == 2
        assert flaky.rungs_seen[:2] == [("bj", True), ("ssor", False)]

    def test_programming_error_in_a_rung_propagates(self, monkeypatch):
        engine, _ = self._unbuildable_rung_1(monkeypatch, TypeError)
        with pytest.raises(TypeError, match="planted"):
            engine.run(steps=1)

    def test_breakdown_classified(self, monkeypatch):
        flaky = FlakyPCG(fail_from=0, fail_count=10_000, breakdown=True)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = GpuEngine(stacked(), controls())
        with pytest.raises(SolverBreakdown) as exc_info:
            engine.run(steps=1)
        assert exc_info.value.context.cause == "cg_breakdown"


@pytest.mark.parametrize("preset", ["gpu", "domain"])
class TestNoRungCouldBeBuilt:
    """Every ladder rung failing to *construct* is a typed, recoverable
    failure of the step it happened in — on both presets, which share
    the one ``except`` around ``make_preconditioner``."""

    PRESETS = {"gpu": (GpuEngine, {}), "domain": (DomainEngine, {"n_domains": 2})}

    def _engine(self, preset, monkeypatch, heals_after, **resilience):
        """Step 2's constructions raise what a non-positive diagonal
        raises, until the run has rolled back ``heals_after`` times."""
        engine_cls, kwargs = self.PRESETS[preset]
        engine = engine_cls(stacked(), controls(**resilience), **kwargs)
        real = engine_base.make_preconditioner

        def construct(name, matrix, device=None):
            rollbacks = engine.metrics.counter("engine.rollbacks").value
            if engine.step == 2 and rollbacks < heals_after:
                raise ValueError("planted: non-positive diagonal")
            return real(name, matrix, device)

        monkeypatch.setattr(engine_base, "make_preconditioner", construct)
        return engine

    def test_typed_error_names_the_failing_step(self, preset, monkeypatch):
        engine = self._engine(preset, monkeypatch, heals_after=1)
        with pytest.raises(SolverBreakdown, match="could be built") as exc_info:
            engine.run(steps=4)
        err = exc_info.value
        assert err.context.step == 2
        assert err.context.cause == "cg_breakdown"
        assert "step 2" in str(err)
        assert err.report.context.step == 2
        assert err.report.steps_completed == 2

    def test_one_failing_step_is_rolled_back(self, preset, monkeypatch):
        engine = self._engine(
            preset, monkeypatch, heals_after=1, checkpoint_every=1
        )
        result = engine.run(steps=4)
        assert result.failure is None and result.n_steps == 4
        assert result.rollbacks == 1
        assert engine.metrics.counter("engine.rollbacks").value == 1
        (note,) = [w for w in result.warnings if w.guard == "rollback"]
        assert note.step == 2
        assert "rolled back to step 2 after SolverBreakdown: step 2:" in (
            note.message
        )

    def test_persistent_failure_ends_typed(self, preset, monkeypatch):
        engine = self._engine(
            preset, monkeypatch, heals_after=10,
            checkpoint_every=1, max_rollbacks=2,
        )
        with pytest.raises(SolverBreakdown, match="could be built") as exc_info:
            engine.run(steps=4)
        assert exc_info.value.context.step == 2
        assert exc_info.value.report.rollbacks == 2
        assert engine.metrics.counter("engine.rollbacks").value == 2


# ----------------------------------------------------------------------
# accepted-dt recording (satellite fix)
# ----------------------------------------------------------------------
class TestAcceptedDtRecording:
    def test_recorded_dt_is_integrated_dt(self, monkeypatch):
        # force one rejection on step 3's first solve (all three rungs
        # fail): the step then integrates the halved dt, and the record
        # must show that dt — not the regrown value carried into step 4
        flaky = FlakyPCG(fail_from=3, fail_count=3)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = GpuEngine(stacked(), controls())
        result = engine.run(steps=6)
        retried = [st for st in result.steps if st.retries == 1]
        assert len(retried) == 1
        assert retried[0].dt == pytest.approx(0.5e-3)
        # the records' dt series sums to the engine's accumulated time
        assert engine.sim_time == pytest.approx(
            sum(st.dt for st in result.steps)
        )
        # and the following step grew dt again (1.5x growth, capped)
        following = result.steps[retried[0].step + 1]
        assert following.dt == pytest.approx(min(0.75e-3, 1e-3))


# ----------------------------------------------------------------------
# health monitor
# ----------------------------------------------------------------------
def _record(step=0, oc_converged=True, max_penetration=0.0):
    return StepRecord(
        step=step, dt=1e-3, cg_iterations=1, open_close_iterations=1,
        n_contacts=0, n_offdiag_blocks=0, max_displacement=0.0,
        max_penetration=max_penetration, retries=0,
        oc_converged=oc_converged,
    )


class TestHealthMonitor:
    """The fixed guard table: ``finite`` raises a recoverable error,
    ``penetration`` / ``energy`` / ``oscillation`` warn and never raise."""

    def make(self):
        return HealthMonitor(contact_threshold=1e-3, energy_scale=1.0)

    def test_thresholds(self):
        assert (PENETRATION_FACTOR, ENERGY_FACTOR, OSCILLATION_STREAK) == (
            10.0, 100.0, 5,
        )

    def test_finite_guard_raises(self):
        monitor = self.make()
        system = BlockSystem([Block(SQ, MAT)])
        system.velocities[0, 0] = np.nan
        with pytest.raises(NumericalBlowup) as exc_info:
            monitor.after_step(system, _record())
        assert exc_info.value.guard == "finite"
        assert exc_info.value.recoverable

    def test_penetration_guard_warns(self):
        monitor = self.make()
        system = BlockSystem([Block(SQ, MAT)])
        warnings = monitor.after_step(
            system, _record(max_penetration=0.5)  # >> 10 x 1e-3
        )
        assert [w.guard for w in warnings] == ["penetration"]

    def test_energy_guard_trips_on_blowup(self):
        monitor = self.make()
        system = BlockSystem([Block(SQ, MAT)])
        system.velocities[0, :2] = 0.01
        monitor.after_step(system, _record(step=0))  # establishes baseline
        system.velocities[0, :2] = 100.0  # 1e8x energy jump, above floor
        warnings = monitor.after_step(system, _record(step=1))  # no raise
        assert [w.guard for w in warnings] == ["energy"]
        assert "jumped 100000000.0x" in warnings[0].message

    def test_energy_guard_silent_below_floor(self):
        monitor = self.make()
        system = BlockSystem([Block(SQ, MAT)])
        system.velocities[0, :2] = 1e-8
        monitor.after_step(system, _record(step=0))
        system.velocities[0, :2] = 1e-5  # huge ratio, negligible energy
        assert monitor.after_step(system, _record(step=1)) == []

    def test_oscillation_guard_warns_after_five_unsettled_steps(self):
        monitor = self.make()
        system = BlockSystem([Block(SQ, MAT)])
        warnings = []
        for step in range(4):
            warnings += monitor.after_step(
                system, _record(step=step, oc_converged=False)
            )
        assert warnings == []
        # a converged step resets the streak
        monitor.after_step(system, _record(step=4, oc_converged=True))
        for step in range(5, 10):
            warnings += monitor.after_step(
                system, _record(step=step, oc_converged=False)
            )  # never raises
        assert [(w.guard, w.step, w.value) for w in warnings] == [
            ("oscillation", 9, 5.0)
        ]

    def test_kinetic_energy(self):
        system = BlockSystem([Block(SQ, MAT)])
        system.velocities[0, 0] = 2.0
        # 0.5 * rho * area * v^2 = 0.5 * 2600 * 1 * 4
        assert kinetic_energy(system) == pytest.approx(0.5 * 2600.0 * 4.0)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_restore_is_bit_exact(self):
        engine = GpuEngine(stacked(), controls())
        engine.run(steps=5)
        cp = engine.checkpoint()
        after_a = engine.run(steps=5)
        va = engine.system.vertices.copy()
        engine.restore_checkpoint(cp)
        after_b = engine.run(steps=5)
        np.testing.assert_array_equal(va, engine.system.vertices)
        assert after_a.steps[-1].cg_iterations == after_b.steps[-1].cg_iterations

    def test_restore_rolls_back_boundary_conditions(self):
        engine = GpuEngine(stacked(), controls())
        cp = engine.checkpoint()
        fixed_before = list(engine.system.fixed_points)
        engine.run(steps=10)  # fixed points move with their block
        engine.restore_checkpoint(cp)
        assert engine.system.fixed_points == fixed_before
        assert engine.sim_time == 0.0

    def test_manager_ring_bounded(self):
        """The manager holds one snapshot: a new checkpoint replaces
        the last one."""
        engine = GpuEngine(stacked(), controls())
        manager = CheckpointManager()
        assert manager.latest is None
        for step in range(5):
            engine.step = step
            cp = manager.take(engine)
            assert manager.latest is cp
        assert manager.latest.step == 4

    def test_manager_persists(self, tmp_path):
        from repro.io.model_io import load_checkpoint

        engine = GpuEngine(stacked(), controls())
        manager = CheckpointManager(persist_dir=tmp_path)
        engine.run(steps=3)
        manager.take(engine)
        cp = load_checkpoint(tmp_path / "checkpoint_00000003.npz")
        assert cp.step == 3
        np.testing.assert_array_equal(cp.vertices, engine.system.vertices)

    def test_header_key_no_longer_read_is_ignored(self, tmp_path):
        """Older files carry a header key this version no longer writes
        (an RNG state, always null: no engine owned an RNG)."""
        import json

        from repro.io.model_io import (
            _checkpoint_digest,
            load_checkpoint,
            save_checkpoint,
        )

        engine = GpuEngine(stacked(), controls())
        engine.run(steps=2)
        path = save_checkpoint(engine.checkpoint(), tmp_path / "cp")
        with np.load(path) as data:
            header = json.loads(str(data["__header__"]))
            arrays = {k: data[k] for k in data.files if not k.startswith("__")}
        header["retired_key"] = None
        header_json = json.dumps(header, sort_keys=True)
        np.savez_compressed(
            path, __header__=np.array(header_json),
            __checksum__=np.array(_checkpoint_digest(header_json, arrays)),
            **arrays,
        )
        cp = load_checkpoint(path)
        assert cp.step == 2
        np.testing.assert_array_equal(cp.vertices, engine.system.vertices)

    def test_contact_column_no_longer_read_is_ignored(self, tmp_path):
        """Older files carry a ``c_shear_disp`` member (a contact column
        nothing read, always zero); they still load."""
        from test_integrator import older_layout

        from repro.io.model_io import load_checkpoint, save_checkpoint

        engine = GpuEngine(stacked(), controls())
        engine.run(steps=2)
        assert engine._contacts.m > 0
        path = save_checkpoint(engine.checkpoint(), tmp_path / "cp")
        cp = load_checkpoint(older_layout(path, tmp_path))
        assert cp.step == 2
        np.testing.assert_array_equal(
            cp.contacts.normal_disp, engine._contacts.normal_disp
        )


# ----------------------------------------------------------------------
# end-to-end recovery (the acceptance scenario) — all three engines
# ----------------------------------------------------------------------
class TestEndToEndRecovery:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_transient_fault_rolls_back_and_completes(
        self, engine_cls, monkeypatch
    ):
        # Fault window: every solve fails from call 6 until one full
        # step has exhausted its retries (3 ladder rungs per attempt,
        # 11 attempts), then the fault heals. Without the resilience
        # layer this run died with a RuntimeError.
        window = 3 * (engine_base.MAX_STEP_RETRIES + 1)
        flaky = FlakyPCG(fail_from=6, fail_count=window)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = engine_cls(
            stacked(), controls(checkpoint_every=2, max_rollbacks=2),
        )
        result = engine.run(steps=10)
        assert result.failure is None
        assert result.n_steps == 10
        assert result.rollbacks >= 1
        assert flaky.failed == window  # the whole window was consumed
        rollback_notes = [w for w in result.warnings if w.guard == "rollback"]
        assert rollback_notes and "rolled back to step" in rollback_notes[0].message
        # renumbering stayed contiguous through the rollback
        assert [s.step for s in result.steps] == list(range(10))
        # the attempts the rollback undid keep their records, as they
        # keep their counts: the counters tally result.rejected
        counters = engine.metrics.snapshot()["counters"]
        rejected = result.rejected
        assert len(rejected) == sum(
            n for name, n in counters.items()
            if name.startswith("engine.step_rejected.")
        )
        assert sum(a.cg_iterations for a in rejected) == (
            counters["engine.rejected_cg_iterations"]
        )
        assert len(rejected) > sum(s.retries for s in result.steps)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_persistent_fault_returns_partial_with_report(
        self, engine_cls, monkeypatch
    ):
        flaky = FlakyPCG(fail_from=6, fail_count=10_000_000)
        monkeypatch.setattr(engine_base, "pcg", flaky)
        engine = engine_cls(
            stacked(),
            controls(checkpoint_every=2, max_rollbacks=1,
                     on_failure="partial"),
        )
        result = engine.run(steps=10)
        assert result.is_partial
        assert result.failure.error == "StepRejected"
        assert result.failure.rollbacks == 1
        assert 0 < result.n_steps < 10
        assert result.failure.steps_completed == result.n_steps
        # the partial prefix is still a usable result
        assert result.displacements is not None

    def test_nan_injection_triggers_rollback_recovery(self, monkeypatch):
        engine = GpuEngine(
            stacked(),
            controls(checkpoint_every=1, max_rollbacks=2),
        )
        original = engine._update_data
        poisoned = {"armed": True}

        def poison_once(d, dt):
            original(d, dt)
            if poisoned["armed"] and engine.sim_time > 3e-3:
                poisoned["armed"] = False
                engine.system.velocities[0, 0] = np.nan

        monkeypatch.setattr(engine, "_update_data", poison_once)
        result = engine.run(steps=8)
        assert result.failure is None
        assert result.rollbacks == 1
        assert np.isfinite(engine.system.velocities).all()

    def test_non_recoverable_error_skips_rollback(self, monkeypatch):
        engine = GpuEngine(
            stacked(),
            controls(checkpoint_every=1, max_rollbacks=5),
        )
        original = engine._update_data

        def corrupt(d, dt):
            original(d, dt)
            if engine.sim_time > 3e-3:
                raise CheckpointCorrupt("planted non-recoverable failure")

        monkeypatch.setattr(engine, "_update_data", corrupt)
        with pytest.raises(CheckpointCorrupt) as exc_info:
            engine.run(steps=5)
        # a checkpoint was there to roll back to, and was not used
        assert exc_info.value.report.steps_completed >= 1
        assert exc_info.value.report.rollbacks == 0
        assert engine.metrics.snapshot()["counters"]["engine.rollbacks"] == 0
