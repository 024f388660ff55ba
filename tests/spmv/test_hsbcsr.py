import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy_csr import scipy_csr

from repro.assembly.global_matrix import BS
from repro.spmv.hsbcsr import SLICE_ALIGN, HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix


@pytest.fixture
def small_matrix():
    return synthetic_block_matrix(12, 20, seed=3)


class TestHSBCSRLayout:
    def test_slice_alignment(self, small_matrix):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        assert h.nd_data.shape[1] % SLICE_ALIGN == 0
        assert h.d_data.shape[1] % SLICE_ALIGN == 0

    def test_slice_content(self, small_matrix):
        # slice s of the nd array holds row s of each block in order
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        m = small_matrix.n_offdiag
        v = h.nd_data[:, : m * BS].reshape(BS, m, BS)
        for k in range(small_matrix.n_offdiag):
            np.testing.assert_array_equal(v[:, k, :], small_matrix.blocks[k])

    def test_row_up_indptr(self, small_matrix):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        assert h.row_up_i[0] == 0
        assert h.row_up_i[-1] == small_matrix.n_offdiag
        counts = np.bincount(small_matrix.rows, minlength=small_matrix.n)
        np.testing.assert_array_equal(np.diff(h.row_up_i), counts)

    def test_row_low_permutation(self, small_matrix):
        # row_low_p maps lower-order positions to upper-storage positions:
        # walking it must visit every upper entry once, sorted by column
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        np.testing.assert_array_equal(
            np.sort(h.row_low_p), np.arange(small_matrix.n_offdiag)
        )
        cols_in_low_order = small_matrix.cols[h.row_low_p]
        assert (np.diff(cols_in_low_order) >= 0).all()

    def test_half_storage_vs_full(self, small_matrix):
        from repro.spmv.formats import BCSRMatrix

        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        b = BCSRMatrix.from_block_matrix(small_matrix)
        # HSBCSR stores roughly half the non-diagonal data
        assert h.storage_bytes < b.storage_bytes


class TestHSBCSRSpmv:
    def test_matches_scipy(self, small_matrix, rng):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        x = rng.normal(size=small_matrix.n * BS)
        expect = scipy_csr(small_matrix) @ x
        np.testing.assert_allclose(hsbcsr_spmv(h, x), expect, rtol=1e-12)

    def test_matches_block_matvec(self, small_matrix, rng):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        x = rng.normal(size=small_matrix.n * BS)
        np.testing.assert_allclose(
            hsbcsr_spmv(h, x), small_matrix.matvec(x), rtol=1e-12
        )

    def test_diagonal_only_matrix(self, rng):
        a = synthetic_block_matrix(5, 0, seed=0)
        h = HSBCSRMatrix.from_block_matrix(a)
        x = rng.normal(size=5 * BS)
        np.testing.assert_allclose(hsbcsr_spmv(h, x), a.matvec(x), rtol=1e-12)

    def test_records_two_kernels(self, small_matrix, device, rng):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        hsbcsr_spmv(h, rng.normal(size=small_matrix.n * BS), device)
        stage1, stage2 = device.records
        assert (stage1.name, stage2.name) == ("hsbcsr_stage1", "hsbcsr_stage2")
        # stage 1 multiplies the upper, transposed and diagonal blocks
        m, n = small_matrix.n_offdiag, small_matrix.n
        assert stage1.counters.flops == 4 * m * 36 + 2 * n * 36

    def test_linear(self, small_matrix, rng):
        h = HSBCSRMatrix.from_block_matrix(small_matrix)
        x = rng.normal(size=small_matrix.n * BS)
        y = rng.normal(size=small_matrix.n * BS)
        np.testing.assert_allclose(
            hsbcsr_spmv(h, 2 * x + y),
            2 * hsbcsr_spmv(h, x) + hsbcsr_spmv(h, y),
            rtol=1e-10, atol=1e-9,
        )

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_dense(self, n, m_req, seed):
        m = min(m_req, n * (n - 1) // 2)
        a = synthetic_block_matrix(n, m, seed=seed)
        h = HSBCSRMatrix.from_block_matrix(a)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=n * BS)
        np.testing.assert_allclose(
            hsbcsr_spmv(h, x), a.to_dense() @ x, rtol=1e-10, atol=1e-9
        )
