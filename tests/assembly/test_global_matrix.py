import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import bsr_matrix
from scipy_csr import scipy_csr

from repro.assembly.global_matrix import BS, BlockMatrix, assemble_gpu
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice


def random_contributions(rng, n, q, m):
    diag_idx = rng.integers(0, n, size=q)
    diag_blocks = rng.normal(size=(q, BS, BS))
    pairs = []
    while len(pairs) < m:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((i, j))
    off = np.array(pairs, dtype=np.int64)
    off_blocks = rng.normal(size=(m, BS, BS))
    return diag_idx.astype(np.int64), diag_blocks, off[:, 0], off[:, 1], off_blocks


def dense_reference(n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks):
    a = np.zeros((n * BS, n * BS))
    for idx, blk in zip(diag_idx, diag_blocks):
        a[idx * BS : (idx + 1) * BS, idx * BS : (idx + 1) * BS] += blk
    for i, j, blk in zip(off_rows, off_cols, off_blocks):
        a[i * BS : (i + 1) * BS, j * BS : (j + 1) * BS] += blk
        a[j * BS : (j + 1) * BS, i * BS : (i + 1) * BS] += blk.T
    return a


class TestBlockMatrix:
    def _simple(self):
        diag = np.stack([np.eye(BS) * (k + 1) for k in range(3)])
        rows = np.array([0], dtype=np.int64)
        cols = np.array([2], dtype=np.int64)
        blocks = np.arange(36, dtype=float).reshape(1, BS, BS)
        return BlockMatrix(3, diag, rows, cols, blocks)

    def test_matvec_matches_dense(self, rng):
        bm = self._simple()
        x = rng.normal(size=3 * BS)
        np.testing.assert_allclose(bm.matvec(x), bm.to_dense() @ x)

    def test_dense_symmetric(self):
        a = self._simple().to_dense()
        np.testing.assert_allclose(a, a.T)

    def test_scipy_roundtrip(self, rng):
        bm = self._simple()
        x = rng.normal(size=3 * BS)
        np.testing.assert_allclose(scipy_csr(bm) @ x, bm.matvec(x))

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="row < col"):
            BlockMatrix(
                3,
                np.zeros((3, BS, BS)),
                np.array([2], dtype=np.int64),
                np.array([0], dtype=np.int64),
                np.zeros((1, BS, BS)),
            )

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            BlockMatrix(
                4,
                np.zeros((4, BS, BS)),
                np.array([1, 0], dtype=np.int64),
                np.array([2, 1], dtype=np.int64),
                np.zeros((2, BS, BS)),
            )

    def test_rejects_out_of_range(self):
        # row < col holds for both: a column past n, a negative row
        for row, col in ((0, 5), (-1, 1)):
            with pytest.raises(ValueError, match="range"):
                BlockMatrix(
                    2,
                    np.zeros((2, BS, BS)),
                    np.array([row], dtype=np.int64),
                    np.array([col], dtype=np.int64),
                    np.zeros((1, BS, BS)),
                )


class TestAssembleSerial:
    """The one assembler the way the CPU presets call it: no device."""

    def test_matches_dense_reference(self, rng):
        args = random_contributions(rng, n=6, q=20, m=30)
        bm = assemble_gpu(6, *args)
        np.testing.assert_allclose(bm.to_dense(), dense_reference(6, *args), atol=1e-12)

    def test_duplicate_pairs_summed(self):
        blk = np.ones((2, BS, BS))
        args = (
            np.zeros(0, dtype=np.int64), np.zeros((0, BS, BS)),
            np.array([0, 0], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            blk,
        )
        bm = assemble_gpu(3, *args)
        assert bm.n_offdiag == 1
        np.testing.assert_allclose(bm.blocks[0], 2.0)
        np.testing.assert_allclose(bm.to_dense(), dense_reference(3, *args))

    def test_lower_orientation_transposed(self, rng):
        blk = rng.normal(size=(1, BS, BS))
        args = (
            np.zeros(0, dtype=np.int64), np.zeros((0, BS, BS)),
            np.array([2], dtype=np.int64),
            np.array([0], dtype=np.int64),
            blk,
        )
        bm = assemble_gpu(3, *args)
        assert bm.rows[0] == 0 and bm.cols[0] == 2
        np.testing.assert_allclose(bm.blocks[0], blk[0].T)
        np.testing.assert_allclose(bm.to_dense(), dense_reference(3, *args))

    def test_diag_only(self, rng):
        diag_idx = np.array([1, 1, 0], dtype=np.int64)
        diag_blocks = rng.normal(size=(3, BS, BS))
        args = (
            diag_idx, diag_blocks,
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, BS, BS)),
        )
        bm = assemble_gpu(2, *args)
        np.testing.assert_allclose(bm.diag[1], diag_blocks[0] + diag_blocks[1])
        assert bm.n_offdiag == 0
        np.testing.assert_allclose(bm.to_dense(), dense_reference(2, *args))

    def test_rejects_row_eq_col(self):
        with pytest.raises(ValueError, match="row == col"):
            assemble_gpu(
                2,
                np.zeros(0, dtype=np.int64), np.zeros((0, BS, BS)),
                np.array([1], dtype=np.int64), np.array([1], dtype=np.int64),
                np.zeros((1, BS, BS)),
            )


def assert_same_matrix(a: BlockMatrix, b: BlockMatrix):
    np.testing.assert_array_equal(a.diag, b.diag)
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.cols, b.cols)
    np.testing.assert_array_equal(a.blocks, b.blocks)


class TestAssembleGpu:
    """The same assembler recording its Fig.-4 kernels on a device."""

    def test_matches_serial(self, rng, device):
        args = random_contributions(rng, n=8, q=25, m=40)
        gpu = assemble_gpu(8, *args, device=device)
        assert_same_matrix(gpu, assemble_gpu(8, *args))
        np.testing.assert_allclose(gpu.to_dense(), dense_reference(8, *args), atol=1e-12)
        assert device.launches() > 0

    def test_works_without_device(self, rng):
        args = random_contributions(rng, n=5, q=10, m=12)
        gpu = assemble_gpu(5, *args)
        np.testing.assert_allclose(gpu.to_dense(), dense_reference(5, *args), atol=1e-12)

    def test_empty_offdiag(self, rng):
        bm = assemble_gpu(
            3,
            np.array([0], dtype=np.int64), rng.normal(size=(1, BS, BS)),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, BS, BS)),
        )
        assert bm.n_offdiag == 0

    def test_rejects_payload_shape(self, rng):
        diag_idx, diag_blocks, rows, cols, blocks = random_contributions(
            rng, n=4, q=5, m=6
        )
        with pytest.raises(ValueError, match="diag_blocks"):
            assemble_gpu(4, diag_idx, diag_blocks[:-1], rows, cols, blocks)
        with pytest.raises(ValueError, match="off_blocks"):
            assemble_gpu(4, diag_idx, diag_blocks, rows, cols, blocks[:-1])
        with pytest.raises(ValueError, match="off_cols"):
            assemble_gpu(4, diag_idx, diag_blocks, rows, cols[:-1], blocks)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_property_gpu_equals_serial(self, m, seed):
        rng = np.random.default_rng(seed)
        n = 7
        args = random_contributions(rng, n=n, q=n, m=m)
        gpu = assemble_gpu(n, *args, device=VirtualDevice(K40))
        assert_same_matrix(gpu, assemble_gpu(n, *args))
        np.testing.assert_allclose(gpu.to_dense(), dense_reference(n, *args), atol=1e-10)


def test_csr_arrays_are_scipy_bsr_to_csr_on_an_engine_matrix():
    """``to_csr_arrays`` is SciPy's BSR → CSR expansion entry for entry —
    dtype, explicit zeros and column order — on the last matrix a slope
    step solves."""
    from repro.meshing.slope_models import build_slope_model

    engine = GpuEngine(
        build_slope_model(joint_spacing=5.0, seed=0),
        SimulationControls(time_step=2e-3, penalty_scale=50.0),
    )
    seen, prepare = [], engine._solver_operand
    engine._solver_operand = lambda m: prepare(seen.append(m) or m)
    engine.run(steps=1)
    a = seen[-1]
    idx_i = np.concatenate([np.arange(a.n), a.rows, a.cols])
    idx_j = np.concatenate([np.arange(a.n), a.cols, a.rows])
    blocks = np.concatenate([a.diag, a.blocks, a.blocks.transpose(0, 2, 1)])
    order = np.argsort(idx_i * a.n + idx_j, kind="stable")
    bptr = np.concatenate([[0], np.cumsum(np.bincount(idx_i, minlength=a.n))])
    expected = bsr_matrix(
        (blocks[order], idx_j[order], bptr), shape=(a.n * BS, a.n * BS)
    ).tocsr()
    indptr, indices, data = a.to_csr_arrays()
    assert (indptr.dtype, indices.dtype, data.dtype) == (
        np.int64, np.int64, expected.data.dtype
    )
    np.testing.assert_array_equal(indptr, expected.indptr)
    np.testing.assert_array_equal(indices, expected.indices)
    np.testing.assert_array_equal(data.view(np.int64), expected.data.view(np.int64))
    assert a.n_offdiag > 0 and (data == 0.0).any()  # explicit zeros kept
