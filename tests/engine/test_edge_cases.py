import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
import repro.engine.base as engine_base
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def stacked(gap=0.0, joint=None):
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem(
        [Block(base, MAT), Block(SQ + np.array([1.0, 1.0 + gap]), MAT)],
        joint,
    )
    s.fix_block(0)
    return s


class TestBoundaryConditions:
    def test_fixed_block_stays_put(self):
        s = BlockSystem([Block(SQ, MAT)])
        s.fix_block(0)
        c = SimulationControls(time_step=1e-3, dynamic=True, gravity=9.81)
        r = GpuEngine(s, c).run(steps=20)
        assert r.max_total_displacement() < 1e-4

    def test_fixed_points_move_with_block(self):
        # an unconstrained block in free fall carries its load points along
        s = BlockSystem([Block(SQ, MAT)])
        s.add_point_load(0, 0.5, 0.5, 0.0, 0.0)
        c = SimulationControls(time_step=1e-3, dynamic=True, gravity=10.0,
                               max_displacement_ratio=1.0)
        e = GpuEngine(s, c)
        e.run(steps=10)
        _, lx, ly, _, _ = s.load_points[0]
        # the load point fell with the block
        np.testing.assert_allclose(
            [lx, ly], s.centroids[0], atol=1e-9
        )

    def test_point_load_accelerates_block(self):
        s = BlockSystem([Block(SQ, MAT)])
        fx = 2600.0 * 5.0  # rho * a for unit area -> a = 5 m/s^2
        s.add_point_load(0, 0.5, 0.5, fx, 0.0)
        c = SimulationControls(time_step=1e-3, dynamic=True, gravity=0.0,
                               max_displacement_ratio=1.0)
        e = GpuEngine(s, c)
        e.run(steps=10)
        t = 10 * 1e-3
        assert s.velocities[0, 0] == pytest.approx(5.0 * t, rel=1e-6)

    def test_off_centroid_load_spins_block(self):
        s = BlockSystem([Block(SQ, MAT)])
        s.add_point_load(0, 1.0, 1.0, 1e4, 0.0)  # corner push
        c = SimulationControls(time_step=1e-3, dynamic=True, gravity=0.0,
                               max_displacement_ratio=1.0)
        e = GpuEngine(s, c)
        e.run(steps=5)
        assert abs(s.velocities[0, 2]) > 0.0


class TestJointStrength:
    def test_cohesion_resists_sliding(self):
        import math

        def slide_distance(cohesion):
            th = math.radians(35.0)
            ramp = np.array([[0, 0], [10, 0], [10, 10 * math.tan(th)]])[::-1]
            cth, sth = math.cos(th), math.sin(th)
            rot = np.array([[cth, -sth], [sth, cth]])
            sq = (SQ - [0.5, 0]) @ rot.T
            center = np.array([5.0, 5 * math.tan(th)]) + rot @ [0, 0.001]
            system = BlockSystem(
                [Block(ramp, MAT), Block(sq + center, MAT)],
                JointMaterial(friction_angle_deg=5.0, cohesion=cohesion),
            )
            system.fix_block(0)
            ctr = SimulationControls(time_step=1e-3, dynamic=True,
                                     max_displacement_ratio=0.05)
            start = system.centroids[1].copy()
            GpuEngine(system, ctr).run(steps=100)
            return float(np.linalg.norm(system.centroids[1] - start))

        free = slide_distance(0.0)
        glued = slide_distance(1e6)
        assert glued < free * 0.2

    def test_tensile_strength_holds_hanging_block(self):
        # block glued to the underside of a fixed slab: with tensile
        # strength above its weight it hangs; without, it falls
        def drop(tensile):
            slab = np.array([[0, 1], [3, 1], [3, 2], [0, 2.0]])
            s = BlockSystem(
                [Block(slab, MAT), Block(SQ + np.array([1.0, 0.0]), MAT)],
                JointMaterial(friction_angle_deg=30.0,
                              tensile_strength=tensile),
            )
            s.fix_block(0)
            # pre-close the bond: press the block up against the slab
            # (a tensile bond can only act through a contact that closed)
            s.velocities[1, 1] = 0.02
            c = SimulationControls(time_step=1e-3, dynamic=True,
                                   gravity=9.81, max_displacement_ratio=0.05)
            e = GpuEngine(s, c)
            y0 = s.centroids[1, 1]
            e.run(steps=60)
            return y0 - s.centroids[1, 1]

        weight = 2600.0 * 9.81  # per unit contact length ~ O(2.5e4)
        assert drop(tensile=0.0) > 0.001       # bond breaks, block falls
        assert drop(tensile=100 * weight) < 1e-4  # the bond holds

    def test_contact_memory_transfers_across_steps(self):
        s = stacked(gap=0.0)
        c = SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.05)
        e = GpuEngine(s, c)
        e.run(steps=30)
        # the resting contacts carry compressive normal memory
        assert e._contacts.m > 0
        assert e._contacts.normal_disp.max() > 0.0


class TestStepControl:
    def test_dt_recovers_after_transient(self):
        s = stacked(gap=0.003)
        c = SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.05)
        e = GpuEngine(s, c)
        r = e.run(steps=120)
        # whatever transients occurred, dt ends at the configured value
        assert r.steps[-1].dt == pytest.approx(1e-3)
        assert all(st.dt <= 1e-3 + 1e-12 for st in r.steps)

    def test_retry_exhaustion_raises(self, monkeypatch):
        # an unsolvable configuration: CG can't converge at any dt because
        # the tolerance is impossible
        monkeypatch.setattr(engine_base, "CG_TOLERANCE", 1e-300)
        monkeypatch.setattr(engine_base, "CG_MAX_ITERATIONS", 2)
        s = stacked(gap=0.0)
        c = SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.05)
        e = GpuEngine(s, c)
        with pytest.raises(RuntimeError, match="no acceptable time step"):
            e.run(steps=1)

    def test_velocity_restored_on_retry(self):
        # retries must not double-apply velocity updates: run with a
        # forced retry and check momentum stays physical
        s = stacked(gap=0.002)
        c = SimulationControls(time_step=2e-3, dynamic=True,
                               max_displacement_ratio=0.05)
        e = GpuEngine(s, c)
        r = e.run(steps=100)
        v = float(np.abs(s.velocities[1]).max())
        assert v < 1.0  # settled, no runaway from retry double-counting

    def test_static_mode_stress_accumulates_but_velocity_zero(self):
        s = stacked(gap=0.0)
        c = SimulationControls(time_step=1e-3, dynamic=False)
        e = GpuEngine(s, c)
        e.run(steps=10)
        np.testing.assert_allclose(s.velocities, 0.0)
