import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.triangular import (
    ilu0_factorize,
    level_schedule,
    sparse_triangular_solve,
)
from repro.spmv.synthetic import synthetic_block_matrix


def csr_of(dense):
    m = sp.csr_matrix(dense)
    m.sort_indices()
    return m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data


class TestLevelSchedule:
    def test_diagonal_matrix_single_level(self):
        indptr, indices, _ = csr_of(np.eye(4))
        levels = level_schedule(indptr, indices)
        np.testing.assert_array_equal(levels, 0)

    def test_bidiagonal_chain(self):
        a = np.eye(5) + np.diag(np.ones(4), -1)
        indptr, indices, _ = csr_of(a)
        levels = level_schedule(indptr, indices, lower=True)
        np.testing.assert_array_equal(levels, np.arange(5))

    def test_upper_chain(self):
        a = np.eye(5) + np.diag(np.ones(4), 1)
        indptr, indices, _ = csr_of(a)
        levels = level_schedule(indptr, indices, lower=False)
        np.testing.assert_array_equal(levels, np.arange(5)[::-1])

    def test_level_valid_topological_order(self, rng):
        indptr, indices, _ = synthetic_block_matrix(10, 20, seed=0).to_csr_arrays()
        levels = level_schedule(indptr, indices, lower=True)
        # every dependency sits at a strictly smaller level
        for i in range(len(indptr) - 1):
            deps = indices[indptr[i] : indptr[i + 1]]
            deps = deps[deps < i]
            if deps.size:
                assert (levels[deps] < levels[i]).all()


class TestTriangularSolve:
    def test_lower_matches_scipy(self, rng):
        n = 30
        a = np.tril(rng.normal(size=(n, n))) + np.eye(n) * n
        mask = rng.random((n, n)) < 0.3
        a = np.where(np.tril(mask) | np.eye(n, dtype=bool), a, 0.0)
        b = rng.normal(size=n)
        indptr, indices, data = csr_of(a)
        x = sparse_triangular_solve(indptr, indices, data, b, lower=True)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_upper_matches_scipy(self, rng):
        n = 25
        a = np.triu(rng.normal(size=(n, n))) + np.eye(n) * n
        b = rng.normal(size=n)
        indptr, indices, data = csr_of(a)
        x = sparse_triangular_solve(indptr, indices, data, b, lower=False)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_unit_diagonal(self, rng):
        n = 10
        strict = np.tril(rng.normal(size=(n, n)), -1)
        a = strict + np.eye(n)
        b = rng.normal(size=n)
        # pattern without explicit unit diagonal values is fine: pass the
        # strict part and unit_diagonal=True (values on diag ignored)
        indptr, indices, data = csr_of(a)
        x = sparse_triangular_solve(
            indptr, indices, data, b, lower=True, unit_diagonal=True
        )
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_zero_diagonal_rejected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        indptr, indices, data = csr_of(a + np.array([[0, 0], [0, 1e-300]]))
        indptr, indices, data = csr_of(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ZeroDivisionError):
            sparse_triangular_solve(indptr, indices, data, np.ones(2))

    def test_device_records_levelsync_kernel(self, device, rng):
        # cuSPARSE-style: one kernel, levels synchronised via atomics
        a = np.eye(4) + np.diag(np.ones(3), -1)
        indptr, indices, data = csr_of(a)
        sparse_triangular_solve(indptr, indices, data, rng.normal(size=4),
                                device=device)
        assert device.launches() == 1
        rec = device.records[0]
        assert rec.name == "tss_levelsync"
        assert rec.counters.atomic_ops == pytest.approx(12.5 * 4)

    def test_deeper_levels_cost_more(self, rng):
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        n = 64
        chain = np.eye(n) + np.diag(np.ones(n - 1), -1)  # n levels
        flat = np.eye(n).copy()
        flat[1:, 0] = 1.0  # 2 levels, same nnz count per row group
        d_chain, d_flat = VirtualDevice(K40), VirtualDevice(K40)
        b = rng.normal(size=n)
        sparse_triangular_solve(*csr_of(chain), b, device=d_chain)
        sparse_triangular_solve(*csr_of(flat), b, device=d_flat)
        assert d_chain.total_time > d_flat.total_time

    def test_tss_much_slower_than_spmv_on_dda_matrix(self, rng):
        # the Fig-10 effect: the level-sync dependency chain makes TSS an
        # order of magnitude slower than one SpMV once the matrix is big
        # enough that launch overhead stops dominating the SpMV
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice
        from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv

        a = synthetic_block_matrix(600, 2300, seed=1)
        indptr, indices, data = a.to_csr_arrays()
        x = rng.normal(size=a.n * 6)
        d_spmv, d_tss = VirtualDevice(K40), VirtualDevice(K40)
        hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x, d_spmv)
        sparse_triangular_solve(indptr, indices, data, x, device=d_tss)
        assert d_tss.total_time > 3.0 * d_spmv.total_time


class TestILU0:
    def test_exact_for_dense_spd(self, rng):
        # with a full pattern, ILU(0) equals complete LU
        n = 8
        q = rng.normal(size=(n, n))
        a = q @ q.T + n * np.eye(n)
        indptr, indices, data = csr_of(a)
        lu = ilu0_factorize(indptr, indices, data)
        dense_lu = np.zeros((n, n))
        for i in range(n):
            for p in range(indptr[i], indptr[i + 1]):
                dense_lu[i, indices[p]] = lu[p]
        l = np.tril(dense_lu, -1) + np.eye(n)
        u = np.triu(dense_lu)
        np.testing.assert_allclose(l @ u, a, rtol=1e-8)

    def test_preserves_pattern(self):
        indptr, indices, data = synthetic_block_matrix(6, 8, seed=2).to_csr_arrays()
        lu = ilu0_factorize(indptr, indices, data)
        assert lu.shape == data.shape

    def test_solve_roundtrip(self, rng):
        # L U x = b solved by the two triangular sweeps reproduces x for
        # a dense-pattern matrix
        n = 6
        q = rng.normal(size=(n, n))
        a = q @ q.T + n * np.eye(n)
        indptr, indices, data = csr_of(a)
        lu = ilu0_factorize(indptr, indices, data)
        x_true = rng.normal(size=n)
        b = a @ x_true
        y = sparse_triangular_solve(indptr, indices, lu, b, lower=True,
                                    unit_diagonal=True)
        x = sparse_triangular_solve(indptr, indices, lu, y, lower=False)
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_missing_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        a.eliminate_zeros()
        with pytest.raises(ValueError, match="diagonal"):
            ilu0_factorize(
                a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data
            )
