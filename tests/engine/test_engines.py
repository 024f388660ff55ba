import math

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import build_brick_wall

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def drop_system(gap=0.005, phi=30.0):
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem(
        [Block(base, MAT), Block(SQ + np.array([1.0, 1.0 + gap]), MAT)],
        JointMaterial(friction_angle_deg=phi),
    )
    s.fix_block(0)
    return s


def dyn_controls(**kw):
    defaults = dict(
        time_step=1e-3, dynamic=True, gravity=9.81,
        penalty_scale=50.0, max_displacement_ratio=0.05,
    )
    defaults.update(kw)
    return SimulationControls(**defaults)


class TestFreeFall:
    # exact dynamic free fall is a row of test_physical_oracles.py
    def test_static_mode_creeps_with_reset_velocity(self):
        s = BlockSystem([Block(SQ, MAT)])
        c = SimulationControls(time_step=1e-3, dynamic=False, gravity=10.0,
                               max_displacement_ratio=1.0)
        e = GpuEngine(s, c)
        e.run(steps=5)
        # each static step moves g dt^2 / 2 (velocity zeroed)
        assert e.system.centroids[0, 1] - 0.5 == pytest.approx(
            -5 * 0.5 * 10.0 * 1e-6, rel=1e-6
        )
        np.testing.assert_allclose(e.system.velocities, 0.0)


class TestSettling:
    def test_block_settles_on_base(self):
        s = drop_system(gap=0.005)
        e = GpuEngine(s, dyn_controls())
        e.run(steps=300)
        # resting on the base surface (y = 1) with centroid at ~1.5
        assert s.centroids[1, 1] == pytest.approx(1.5, abs=5e-3)
        # no significant lateral drift (micro-slip during the bounce
        # transient allows ~mm), negligible residual motion
        assert abs(s.centroids[1, 0] - 1.5) < 5e-3
        assert abs(s.velocities[1, 0]) < 0.01

    def test_no_unbounded_penetration(self):
        s = drop_system(gap=0.005)
        e = GpuEngine(s, dyn_controls())
        r = e.run(steps=200)
        assert max(st.max_penetration for st in r.steps) < 0.01

    def test_elastic_area_preserved_after_settling(self):
        s = drop_system(gap=0.002)
        e = GpuEngine(s, dyn_controls())
        e.run(steps=200)
        # stress memory prevents ratcheting compression
        assert s.areas[1] == pytest.approx(1.0, abs=1e-3)

    def test_stress_memory_accumulates_compression(self):
        s = drop_system(gap=0.0)
        e = GpuEngine(s, dyn_controls())
        e.run(steps=100)
        # at rest the block carries the gravity-induced compression;
        # the sign is negative (compression), sized within an order of
        # magnitude of rho g h / 2 (bounce transients allowed)
        assert s.stresses[1, 1] < 0.0


class TestInclineFriction:
    # sliding iff tan(theta) > tan(phi) is a row of test_physical_oracles.py
    def _ramp(self, slope_deg, phi_deg):
        th = math.radians(slope_deg)
        ramp = np.array([[0, 0], [10, 0], [10, 10 * math.tan(th)]])[::-1]
        c, s_ = math.cos(th), math.sin(th)
        rot = np.array([[c, -s_], [s_, c]])
        sq = (SQ - [0.5, 0]) @ rot.T
        center = np.array([5.0, 5 * math.tan(th)]) + rot @ [0, 0.001]
        system = BlockSystem(
            [Block(ramp, MAT), Block(sq + center, MAT)],
            JointMaterial(friction_angle_deg=phi_deg),
        )
        system.fix_block(0)
        return system

    def test_high_friction_holds(self):
        s = self._ramp(30.0, 50.0)
        e = GpuEngine(s, dyn_controls())
        start = s.centroids[1].copy()
        e.run(steps=150)
        assert np.linalg.norm(s.centroids[1] - start) < 0.005

    def test_sliding_moves_downslope(self):
        s = self._ramp(30.0, 5.0)
        e = GpuEngine(s, dyn_controls())
        start = s.centroids[1].copy()
        e.run(steps=150)
        delta = s.centroids[1] - start
        assert delta[0] < 0  # downslope is -x for this ramp
        assert delta[1] < 0


class TestPipelineEquivalence:
    def test_serial_equals_gpu_trajectories(self):
        # floating-point contract: the serial per-contact loops and the
        # vectorised kernels sum in different orders, so trajectories
        # agree to accumulation noise, not bit-exactly
        c = dyn_controls(time_step=5e-4)
        g = GpuEngine(build_brick_wall(3, 4), c)
        s = SerialEngine(build_brick_wall(3, 4), c)
        g.run(steps=15)
        s.run(steps=15)
        np.testing.assert_allclose(
            g.system.centroids, s.system.centroids, atol=1e-8
        )
        np.testing.assert_allclose(
            g.system.velocities, s.system.velocities, atol=1e-5
        )

    def test_modeled_gpu_faster_at_scale(self):
        c = dyn_controls(time_step=5e-4)
        g = GpuEngine(build_brick_wall(6, 10), c)
        s = SerialEngine(build_brick_wall(6, 10), c)
        rg = g.run(steps=3)
        rs = s.run(steps=3)
        assert rs.device.total_time > rg.device.total_time

    def test_k40_profile_faster_than_k20(self):
        from repro.gpu.device import K20, K40

        c = dyn_controls(time_step=5e-4)
        g20 = GpuEngine(build_brick_wall(4, 6), c, profile=K20)
        g40 = GpuEngine(build_brick_wall(4, 6), c, profile=K40)
        r20 = g20.run(steps=3)
        r40 = g40.run(steps=3)
        assert r40.device.total_time < r20.device.total_time
        # identical physics regardless of profile
        np.testing.assert_allclose(
            g20.system.centroids, g40.system.centroids, atol=1e-14
        )


class TestDiagnostics:
    def test_step_records_populated(self):
        e = GpuEngine(drop_system(), dyn_controls())
        r = e.run(steps=5)
        assert r.n_steps == 5
        for st in r.steps:
            assert st.dt > 0
            assert st.open_close_iterations >= 1
            assert st.n_contacts >= 0

    def test_snapshots(self):
        e = GpuEngine(drop_system(), dyn_controls())
        r = e.run(steps=10, snapshot_every=5)
        assert len(r.snapshots) == 3  # steps 5, 10, final
        assert r.snapshots[0][0] == 5

    def test_to_csv(self, tmp_path):
        r = GpuEngine(drop_system(), dyn_controls()).run(steps=3)
        path = tmp_path / "steps.csv"
        r.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,dt,cg_iterations")
        assert len(lines) == 4

    def test_module_times_cover_pipeline(self):
        e = GpuEngine(drop_system(), dyn_controls())
        r = e.run(steps=3)
        for module in ("contact_detection", "equation_solving", "data_updating"):
            assert r.module_times.times[module] > 0

    def test_device_ledger_attributed_to_modules(self):
        e = GpuEngine(drop_system(), dyn_controls())
        r = e.run(steps=3)
        by_mod = r.modeled_module_times()
        assert "equation_solving" in by_mod
        assert "contact_detection" in by_mod

    def test_invalid_steps(self):
        e = GpuEngine(drop_system(), dyn_controls())
        with pytest.raises(ValueError):
            e.run(steps=0)

    def test_cg_warm_start_effective(self):
        # a settled system re-solves in very few iterations
        e = GpuEngine(drop_system(gap=0.0), dyn_controls())
        r = e.run(steps=50)
        late = [st.cg_iterations for st in r.steps[-10:]]
        assert np.mean(late) < 30
