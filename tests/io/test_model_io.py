import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.io.model_io import load_system, save_system

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def system():
    s = BlockSystem(
        [
            Block(SQ, BlockMaterial(density=2000.0)),
            Block(SQ + 2, BlockMaterial(young=1e10)),
        ],
        JointMaterial(friction_angle_deg=25.0, cohesion=100.0),
    )
    s.fix_block(0)
    s.add_point_load(1, 2.5, 2.5, 1.0, -2.0)
    s.velocities[1, 1] = -3.0
    s.stresses[0, 0] = -5e4
    return s


class TestRoundTrip:
    def test_geometry(self, system, tmp_path):
        save_system(system, tmp_path / "model")
        loaded = load_system(tmp_path / "model")
        np.testing.assert_allclose(loaded.vertices, system.vertices)
        np.testing.assert_array_equal(loaded.offsets, system.offsets)

    def test_materials(self, system, tmp_path):
        save_system(system, tmp_path / "model")
        loaded = load_system(tmp_path / "model")
        assert loaded.material_of(0).density == 2000.0
        assert loaded.material_of(1).young == 1e10
        assert loaded.joint_material.friction_angle_deg == 25.0
        assert loaded.joint_material.cohesion == 100.0

    def test_state(self, system, tmp_path):
        save_system(system, tmp_path / "model")
        loaded = load_system(tmp_path / "model")
        np.testing.assert_allclose(loaded.velocities, system.velocities)
        np.testing.assert_allclose(loaded.stresses, system.stresses)

    def test_boundary_conditions(self, system, tmp_path):
        save_system(system, tmp_path / "model")
        loaded = load_system(tmp_path / "model")
        assert loaded.fixed_points == system.fixed_points
        assert loaded.load_points == system.load_points

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "other"}')
        (tmp_path / "bad.npz").write_bytes(b"")
        with pytest.raises(ValueError, match="not a repro"):
            load_system(tmp_path / "bad")

    def test_loaded_system_runs(self, system, tmp_path):
        from repro.core.state import SimulationControls
        from repro.engine.gpu_engine import GpuEngine

        save_system(system, tmp_path / "model")
        loaded = load_system(tmp_path / "model")
        r = GpuEngine(
            loaded,
            SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.5),
        ).run(steps=3)
        assert r.n_steps == 3


class TestReporting:
    def test_comparison_report(self, tmp_path):
        from repro.io.reporting import ComparisonReport

        rep = ComparisonReport("Table II", "Case 1 speed-ups")
        rep.add("total speed-up (K40)", 48.72, 31.0)
        rep.add("contact detection", 117.69, 80.0)
        rep.note("scaled model: 400 blocks instead of 4361")
        text = rep.render()
        assert "48.72" in text
        assert "note:" in text
        path = rep.write(tmp_path)
        assert path.exists()
        assert "Table II" in path.read_text()

    def test_ratio_column(self):
        from repro.io.reporting import ComparisonReport

        rep = ComparisonReport("X", "d")
        rep.add("a", 4.0, 2.0)
        rep.add("b", "n/a", 1.0)
        # measured / paper, and no ratio against a text cell
        assert rep.to_table().rows == [
            ["a", "4", "2", "0.5"], ["b", "n/a", "1", ""],
        ]
