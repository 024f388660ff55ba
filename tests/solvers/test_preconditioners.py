import numpy as np
import pytest

from repro.assembly.global_matrix import BS
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    ILU0Preconditioner,
    IdentityPreconditioner,
    SSORAIPreconditioner,
    make_preconditioner,
)
from repro.spmv.synthetic import synthetic_block_matrix


@pytest.fixture
def matrix():
    return synthetic_block_matrix(12, 24, seed=9)


class TestIdentity:
    def test_apply_is_copy(self, matrix, rng):
        m = IdentityPreconditioner()
        r = rng.normal(size=matrix.n * BS)
        z = m.apply(r)
        np.testing.assert_array_equal(z, r)
        assert z is not r


class TestBlockJacobi:
    def test_exact_on_block_diagonal_matrix(self, rng):
        a = synthetic_block_matrix(6, 0, seed=3)
        m = BlockJacobiPreconditioner(a)
        r = rng.normal(size=6 * BS)
        # for a block-diagonal matrix, M^{-1} r solves A z = r exactly
        np.testing.assert_allclose(a.to_dense() @ m.apply(r), r, rtol=1e-9)

    def test_symmetric_operator(self, matrix, rng):
        m = BlockJacobiPreconditioner(matrix)
        u = rng.normal(size=matrix.n * BS)
        v = rng.normal(size=matrix.n * BS)
        assert u @ m.apply(v) == pytest.approx(v @ m.apply(u), rel=1e-9)

    def test_construction_and_apply_recorded(self, matrix, device, rng):
        m = BlockJacobiPreconditioner(matrix, device)
        assert "bj_construct" in device.time_by_kernel()
        # standalone, an application is its own launch (inside pcg on one
        # device it rides in the update kernel)
        m.apply(rng.normal(size=matrix.n * BS), device)
        assert [r.name for r in device.records] == ["bj_construct", "bj_apply"]


class TestSSORAI:
    def test_symmetric_positive_operator(self, matrix, rng):
        m = SSORAIPreconditioner(matrix)
        u = rng.normal(size=matrix.n * BS)
        v = rng.normal(size=matrix.n * BS)
        assert u @ m.apply(v) == pytest.approx(v @ m.apply(u), rel=1e-8)
        assert u @ m.apply(u) > 0

    def test_reduces_to_scaled_bj_for_block_diagonal(self, rng):
        a = synthetic_block_matrix(5, 0, seed=4)
        m = SSORAIPreconditioner(a, omega=1.0)
        bj = BlockJacobiPreconditioner(a)
        r = rng.normal(size=5 * BS)
        np.testing.assert_allclose(m.apply(r), bj.apply(r), rtol=1e-10)

    def test_invalid_omega(self, matrix):
        with pytest.raises(ValueError, match="omega"):
            SSORAIPreconditioner(matrix, omega=2.0)

    def test_no_triangular_solve_launches(self, matrix, device, rng):
        m = SSORAIPreconditioner(matrix, device)
        m.apply(rng.normal(size=matrix.n * BS), device)
        assert not any("tss" in k for k in device.time_by_kernel())


class TestILU0:
    def test_apply_approximates_inverse(self, matrix, rng):
        m = ILU0Preconditioner(matrix)
        x_true = rng.normal(size=matrix.n * BS)
        b = matrix.matvec(x_true)
        z = m.apply(b)
        # ILU(0) of a diagonally dominant matrix is a good approximate
        # inverse: relative error well below 1
        rel = np.linalg.norm(z - x_true) / np.linalg.norm(x_true)
        assert rel < 0.5

    def test_apply_records_level_launches(self, matrix, device, rng):
        m = ILU0Preconditioner(matrix)
        m.apply(rng.normal(size=matrix.n * BS), device)
        assert any("tss_level" in k for k in device.time_by_kernel())

    def test_construction_far_more_expensive_than_bj(self, matrix):
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        d_bj, d_ilu = VirtualDevice(K40), VirtualDevice(K40)
        BlockJacobiPreconditioner(matrix, d_bj)
        ILU0Preconditioner(matrix, d_ilu)
        # Table I: ILU construction orders of magnitude above BJ
        assert d_ilu.total_time > 10.0 * d_bj.total_time


class TestFactory:
    @pytest.mark.parametrize("name", ["bj", "ssor", "ilu"])
    def test_all_constructible(self, matrix, name):
        m = make_preconditioner(name, matrix)
        assert m.name == name

    def test_unknown_rejected(self, matrix):
        with pytest.raises(ValueError, match="unknown preconditioner"):
            make_preconditioner("amg", matrix)
