"""Save / resume equivalence: a run split by persistence must continue
exactly like an uninterrupted one (geometry, velocities, stresses,
boundary conditions all round-trip; only the contact-state memory is
rebuilt by transfer, which the first resumed step re-detects)."""

import numpy as np

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.io.model_io import load_system, save_system

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def make_system():
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem(
        [Block(base, MAT), Block(SQ + np.array([1.0, 1.003]), MAT)],
        JointMaterial(friction_angle_deg=30.0),
    )
    s.fix_block(0)
    return s


def controls():
    return SimulationControls(time_step=1e-3, dynamic=True,
                              max_displacement_ratio=0.05)


class TestSaveResume:
    def test_resumed_run_continues_consistently(self, tmp_path):
        # continuous reference
        ref = GpuEngine(make_system(), controls())
        ref.run(steps=40)

        # split run with a save/load at step 20
        first = GpuEngine(make_system(), controls())
        first.run(steps=20)
        save_system(first.system, tmp_path / "mid")
        resumed_system = load_system(tmp_path / "mid")
        second = GpuEngine(resumed_system, controls())
        second.run(steps=20)

        # the split loses only the warm-start vector and per-contact state
        # labels (rebuilt in one step); trajectories agree closely
        np.testing.assert_allclose(
            ref.system.centroids, resumed_system.centroids, atol=1e-4
        )
        np.testing.assert_allclose(
            ref.system.velocities, resumed_system.velocities, atol=1e-2
        )

    def test_state_arrays_roundtrip_exactly(self, tmp_path):
        e = GpuEngine(make_system(), controls())
        e.run(steps=15)
        save_system(e.system, tmp_path / "m")
        loaded = load_system(tmp_path / "m")
        np.testing.assert_array_equal(loaded.vertices, e.system.vertices)
        np.testing.assert_array_equal(loaded.velocities, e.system.velocities)
        np.testing.assert_array_equal(loaded.stresses, e.system.stresses)
        assert loaded.fixed_points == e.system.fixed_points

    def test_moved_fixed_points_persist(self, tmp_path):
        # fixed points move with their blocks during a run; the moved
        # positions are what must be saved
        e = GpuEngine(make_system(), controls())
        e.run(steps=10)
        save_system(e.system, tmp_path / "m")
        loaded = load_system(tmp_path / "m")
        for (b1, x1, y1), (b2, x2, y2) in zip(
            e.system.fixed_points, loaded.fixed_points
        ):
            assert b1 == b2
            assert x1 == x2 and y1 == y2
