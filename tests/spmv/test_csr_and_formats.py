import numpy as np
import pytest
from scipy_csr import scipy_csr

from repro.assembly.global_matrix import BS
from repro.spmv.csr_ref import CSRMatrix, csr_spmv
from repro.spmv.formats import BCSRMatrix, bcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix


@pytest.fixture
def matrix():
    return synthetic_block_matrix(10, 18, seed=7)


class TestCSR:
    def test_matches_scipy(self, matrix, rng):
        c = CSRMatrix.from_block_matrix(matrix)
        x = rng.normal(size=matrix.n * BS)
        np.testing.assert_allclose(
            csr_spmv(c, x), scipy_csr(matrix) @ x, rtol=1e-12
        )

    def test_nnz_counts_both_triangles(self, matrix):
        c = CSRMatrix.from_block_matrix(matrix)
        assert c.nnz == (matrix.n + 2 * matrix.n_offdiag) * BS * BS

    def test_recovery_cost_recorded(self, matrix, device):
        CSRMatrix.from_block_matrix(matrix, device)
        assert "csr_recover_full" in device.time_by_kernel()

    def test_recovery_cost_skippable(self, matrix, device):
        CSRMatrix.from_block_matrix(matrix, device, include_recovery_cost=False)
        assert device.launches() == 0

    def test_spmv_kernel_recorded(self, matrix, device, rng):
        c = CSRMatrix.from_block_matrix(matrix)
        csr_spmv(c, rng.normal(size=matrix.n * BS), device)
        assert "csr_vector_spmv" in device.time_by_kernel()


class TestBCSR:
    def test_matches_scipy(self, matrix, rng):
        b = BCSRMatrix.from_block_matrix(matrix)
        x = rng.normal(size=matrix.n * BS)
        np.testing.assert_allclose(
            bcsr_spmv(b, x), scipy_csr(matrix) @ x, rtol=1e-12
        )

    def test_stores_both_triangles(self, matrix):
        b = BCSRMatrix.from_block_matrix(matrix)
        assert b.indices.size == matrix.n + 2 * matrix.n_offdiag

    def test_device_recording(self, matrix, device, rng):
        b = BCSRMatrix.from_block_matrix(matrix)
        bcsr_spmv(b, rng.normal(size=matrix.n * BS), device)
        assert device.launches() == 1


class TestFormatComparison:
    def test_all_formats_agree(self, rng):
        a = synthetic_block_matrix(20, 45, seed=11)
        x = rng.normal(size=a.n * BS)
        expect = scipy_csr(a) @ x
        from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv

        results = {
            "hsbcsr": hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x),
            "csr": csr_spmv(CSRMatrix.from_block_matrix(a), x),
            "bcsr": bcsr_spmv(BCSRMatrix.from_block_matrix(a), x),
        }
        for name, y in results.items():
            np.testing.assert_allclose(y, expect, rtol=1e-10, err_msg=name)

    def test_hsbcsr_streams_fewer_bytes_than_csr(self, rng, matrix):
        # the core of the 2.8x claim: half the matrix data + no per-entry
        # column indices
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice
        from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv

        a = synthetic_block_matrix(64, 200, seed=5)
        x = rng.normal(size=a.n * BS)
        d_h, d_c = VirtualDevice(K40), VirtualDevice(K40)
        hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x, d_h)
        c = CSRMatrix.from_block_matrix(a)
        csr_spmv(c, x, d_c)
        assert (
            d_h.total_counters.global_bytes_read
            < d_c.total_counters.global_bytes_read
        )


class TestSynthetic:
    def test_spd(self):
        a = synthetic_block_matrix(8, 12, seed=1)
        eigs = np.linalg.eigvalsh(a.to_dense())
        assert (eigs > 0).all()

    def test_exact_counts(self):
        a = synthetic_block_matrix(30, 70, seed=2)
        assert a.n == 30
        assert a.n_offdiag == 70

    def test_deterministic(self):
        a = synthetic_block_matrix(9, 14, seed=4)
        b = synthetic_block_matrix(9, 14, seed=4)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_too_many_offdiag_rejected(self):
        with pytest.raises(ValueError):
            synthetic_block_matrix(4, 100, seed=0)

    def test_paper_case1_dimensions_buildable(self):
        # the Fig-10 matrix: 4361 diagonal / 18731 non-diagonal blocks
        from repro.spmv.synthetic import slope_like_sparsity

        rows, cols = slope_like_sparsity(4361, 18731, seed=0)
        assert rows.size == 18731
        assert (rows < cols).all()
