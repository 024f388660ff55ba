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


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a``: ``-0.0`` differs from ``0.0``."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def block_products(blocks, x) -> np.ndarray:
    """``(n, 6)``: row ``k`` is ``blocks[k] @ x[k]``, each 6-term dot
    summed from ``0.0`` left to right in Python."""
    xb = np.reshape(x, (-1, BS)).tolist()
    return np.array([
        [sum_left_to_right(row, xk) for row in blk]
        for blk, xk in zip(blocks.tolist(), xb)
    ])


def sum_left_to_right(coeffs, values) -> float:
    acc = 0.0
    for c, v in zip(coeffs, values):
        acc += c * v
    return acc


def signed_residual(rng, n) -> np.ndarray:
    """A residual with a block of ``-0.0`` and scattered zeros of both
    signs, whose products a left-to-right sum turns into ``+0.0``."""
    r = rng.normal(size=n * BS) * 10.0 ** rng.integers(-6, 7, size=n * BS)
    r[:BS] = -0.0
    r[BS + 1 :: 7] = 0.0
    r[BS + 4 :: 11] = -0.0
    return r


def dense_parts(a):
    """Dense ``D^{-1}`` and strict block upper triangle ``U`` of ``a``."""
    assert (a.rows < a.cols).all()
    d_inv = np.zeros((a.n * BS, a.n * BS))
    upper = np.zeros_like(d_inv)
    for i, blk in enumerate(np.linalg.inv(a.diag)):
        d_inv[i * BS : (i + 1) * BS, i * BS : (i + 1) * BS] = blk
    for i, j, blk in zip(a.rows, a.cols, a.blocks):
        upper[i * BS : (i + 1) * BS, j * BS : (j + 1) * BS] = blk
    return d_inv, upper


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

    def test_apply_is_a_left_to_right_loop(self, matrix, rng):
        r = signed_residual(rng, matrix.n)
        z = BlockJacobiPreconditioner(matrix).apply(r)
        expected = block_products(np.linalg.inv(matrix.diag), r)
        np.testing.assert_array_equal(bits(z), bits(expected.reshape(-1)))
        assert bits(z[:BS]).tolist() == [0] * BS  # +0.0, not -0.0

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

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_apply_is_three_left_to_right_block_products(
        self, matrix, rng, omega
    ):
        """``t = D^{-1} r``, ``v = t - w D^{-1} (L t)``,
        ``z = s (v - w D^{-1} (U v))``: the triangular halves are the
        operator's own, every ``D^{-1}`` product a Python loop."""
        m = SSORAIPreconditioner(matrix, omega=omega)
        inv = np.linalg.inv(matrix.diag)
        r = signed_residual(rng, matrix.n)
        t = block_products(inv, r)
        v = t - omega * block_products(inv, m.op.lower(t.reshape(-1)))
        z = v - omega * block_products(inv, m.op.upper(v.reshape(-1)))
        expected = (omega * (2.0 - omega) * z).reshape(-1)
        np.testing.assert_array_equal(bits(m.apply(r)), bits(expected))

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_apply_is_the_dense_ssor_approximate_inverse(self, rng, omega):
        a = synthetic_block_matrix(20, 45, seed=2)
        d_inv, upper = dense_parts(a)
        eye = np.eye(a.n * BS)
        dense = (
            omega * (2.0 - omega) * (eye - omega * d_inv @ upper) @ d_inv
            @ (eye - omega * upper.T @ d_inv)
        )
        m = SSORAIPreconditioner(a, omega=omega)
        y, z = rng.normal(size=(2, a.n * BS))
        np.testing.assert_allclose(m.apply(z), dense @ z, rtol=1e-12,
                                   atol=1e-12 * np.abs(dense @ z).max())
        assert y @ m.apply(z) == pytest.approx(z @ m.apply(y), rel=1e-12)

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
