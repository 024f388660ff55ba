import numpy as np
import pytest

from repro.core.materials import BlockMaterial, JointMaterial


class TestBlockMaterial:
    def test_defaults_valid(self):
        m = BlockMaterial()
        assert m.density > 0

    def test_plane_stress_matrix(self):
        m = BlockMaterial(young=1.0, poisson=0.0)
        e = m.elastic_matrix()
        np.testing.assert_allclose(e, np.diag([1.0, 1.0, 0.5]))

    def test_plane_stress_poisson_coupling(self):
        m = BlockMaterial(young=2.0, poisson=0.5 - 1e-9)
        e = m.elastic_matrix()
        assert e[0, 1] == pytest.approx(e[1, 0])
        assert e[0, 1] > 0

    def test_plane_strain_stiffer(self):
        ps = BlockMaterial(young=1.0, poisson=0.3, plane_strain=False)
        pe = BlockMaterial(young=1.0, poisson=0.3, plane_strain=True)
        assert pe.elastic_matrix()[0, 0] > ps.elastic_matrix()[0, 0]

    def test_elastic_matrix_spd(self):
        e = BlockMaterial(young=5e9, poisson=0.25).elastic_matrix()
        eigs = np.linalg.eigvalsh(e)
        assert (eigs > 0).all()

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            BlockMaterial(density=-1)

    def test_invalid_poisson(self):
        with pytest.raises(ValueError):
            BlockMaterial(poisson=0.5)

    def test_invalid_young(self):
        with pytest.raises(ValueError):
            BlockMaterial(young=0.0)

    def test_frozen_hashable(self):
        assert hash(BlockMaterial()) == hash(BlockMaterial())


class TestJointMaterial:
    def test_tan_phi(self):
        j = JointMaterial(friction_angle_deg=45.0)
        assert j.tan_phi == pytest.approx(1.0)

    def test_zero_friction(self):
        assert JointMaterial(friction_angle_deg=0.0).tan_phi == 0.0

    def test_invalid_angle(self):
        with pytest.raises(ValueError):
            JointMaterial(friction_angle_deg=90.0)

    def test_invalid_cohesion(self):
        with pytest.raises(ValueError):
            JointMaterial(cohesion=-1.0)

    def test_invalid_tensile(self):
        with pytest.raises(ValueError):
            JointMaterial(tensile_strength=-0.5)
