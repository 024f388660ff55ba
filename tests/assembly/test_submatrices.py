import numpy as np
import pytest

from repro.assembly.submatrices import (
    body_force_vector,
    elastic_submatrix,
    fixed_point_contribution,
    initial_stress_vector,
    mass_integral_matrix,
    point_load_vector,
)
from repro.core.displacement import displacement_matrix
from repro.core.materials import BlockMaterial
from repro.engine.physics import inertia
from repro.geometry.polygon import polygon_area, polygon_centroid, polygon_second_moments

SQ = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def _mass_matrix_quadrature(poly, density=1.0, n=400):
    """Monte-Carlo-free quadrature reference for rho * int T^T T dS."""
    c = polygon_centroid(poly)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    from repro.geometry.polygon import point_in_polygon

    inside = point_in_polygon(poly, pts)
    pts = pts[inside]
    da = (xs[1] - xs[0]) * (ys[1] - ys[0])
    t = displacement_matrix(pts, np.broadcast_to(c, pts.shape))
    return density * np.einsum("mki,mkj->ij", t, t) * da


class TestMassIntegralMatrix:
    def test_matches_quadrature(self):
        area = polygon_area(SQ)
        mom = polygon_second_moments(SQ)
        exact = mass_integral_matrix(area, mom)
        quad = _mass_matrix_quadrature(SQ)
        np.testing.assert_allclose(exact, quad, rtol=0.02, atol=0.02)

    def test_symmetric(self):
        m = mass_integral_matrix(4.0, (1.0, 2.0, 0.5))
        np.testing.assert_allclose(m, m.T)

    def test_positive_definite(self):
        m = mass_integral_matrix(4.0, polygon_second_moments(SQ))
        assert (np.linalg.eigvalsh(m) > 0).all()

    def test_translation_entries(self):
        m = mass_integral_matrix(3.0, (1.0, 1.0, 0.0))
        assert m[0, 0] == m[1, 1] == 3.0
        assert m[0, 1] == 0.0

    def test_rotation_entry_is_polar_moment(self):
        m = mass_integral_matrix(4.0, (2.0, 3.0, 0.0))
        assert m[2, 2] == pytest.approx(5.0)


class TestElastic:
    def test_strain_block_only(self):
        k = elastic_submatrix(2.0, BlockMaterial(young=1.0, poisson=0.0))
        assert np.all(k[:3, :] == 0.0)
        assert np.all(k[:, :3] == 0.0)
        np.testing.assert_allclose(k[3:, 3:], 2.0 * np.diag([1.0, 1.0, 0.5]))

    def test_symmetric_psd(self):
        k = elastic_submatrix(5.0, BlockMaterial())
        np.testing.assert_allclose(k, k.T)
        assert (np.linalg.eigvalsh(k) >= -1e-6).all()


def _inertia(dt, v):
    """Shi's inertia term and load for the 2 x 2 square at 1000 kg/m^3."""
    m = 1000.0 * mass_integral_matrix(4.0, polygon_second_moments(SQ))
    k, f = inertia(m[None], dt, np.asarray(v, dtype=float)[None])
    return k[0], f[0]


class TestInertia:
    def test_stiffness_scales_inverse_dt2(self):
        k1, _ = _inertia(0.01, np.zeros(6))
        k2, _ = _inertia(0.005, np.zeros(6))
        np.testing.assert_allclose(k2, 4.0 * k1)

    def test_force_proportional_to_velocity(self):
        _, f = _inertia(0.01, [1.0, 0, 0, 0, 0, 0])
        # translational velocity -> momentum force 2*rho*S*v/dt
        assert f[0] == pytest.approx(2 * 1000.0 * 4.0 * 1.0 / 0.01)
        assert f[1] == pytest.approx(0.0)

    def test_smaller_dt_stiffer_diagonal(self):
        # the paper's conditioning argument: halving physical time
        # enlarges the diagonal blocks
        k_big, _ = _inertia(0.01, np.zeros(6))
        k_small, _ = _inertia(0.001, np.zeros(6))
        assert np.trace(k_small) > np.trace(k_big)


class TestLoads:
    def test_body_force_gravity(self):
        f = body_force_vector(4.0, 0.0, -9.81 * 1000.0)
        assert f[1] == pytest.approx(-39240.0)
        assert np.all(f[2:] == 0.0)

    def test_point_load_at_centroid_pure_translation(self):
        c = np.array([1.0, 1.0])
        f = point_load_vector(c, c, 3.0, -4.0)
        np.testing.assert_allclose(f, [3.0, -4.0, 0, 0, 0, 0])

    def test_point_load_off_centroid_has_moment(self):
        c = np.array([0.0, 0.0])
        p = np.array([1.0, 0.0])
        f = point_load_vector(p, c, 0.0, 1.0)
        assert f[2] == pytest.approx(1.0)  # torque = dx * fy

    def test_initial_stress(self):
        f = initial_stress_vector(2.0, (1.0, 2.0, 3.0))
        np.testing.assert_allclose(f, [0, 0, 0, -2.0, -4.0, -6.0])


class TestFixedPoint:
    def test_symmetric_psd(self):
        k = fixed_point_contribution(
            np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1e6
        )
        np.testing.assert_allclose(k, k.T)
        assert (np.linalg.eigvalsh(k) >= -1e-6).all()

    def test_rank_two(self):
        # a single point spring constrains 2 directions
        k = fixed_point_contribution(
            np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1.0
        )
        assert np.linalg.matrix_rank(k) == 2

    def test_penalty_scaling(self):
        p = np.array([1.0, 2.0])
        c = np.array([0.0, 0.0])
        np.testing.assert_allclose(
            fixed_point_contribution(p, c, 10.0),
            10.0 * fixed_point_contribution(p, c, 1.0),
        )
