"""Cross-format consistency and storage-claim property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.global_matrix import BS
from repro.spmv.csr_ref import CSRMatrix, csr_spmv
from repro.spmv.formats import BCSRMatrix, bcsr_spmv
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix


@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=25, deadline=None)
def test_property_all_formats_agree(n, m_req, seed):
    m = min(m_req, n * (n - 1) // 2)
    a = synthetic_block_matrix(n, m, seed=seed)
    x = np.random.default_rng(seed + 7).normal(size=n * BS)
    reference = a.matvec(x)
    ys = [
        hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x),
        csr_spmv(CSRMatrix.from_block_matrix(a), x),
        bcsr_spmv(BCSRMatrix.from_block_matrix(a), x),
    ]
    for y in ys:
        np.testing.assert_allclose(y, reference, rtol=1e-9, atol=1e-9)


class TestStorageClaims:
    @pytest.fixture(scope="class")
    def matrix(self):
        return synthetic_block_matrix(60, 170, seed=19)

    def test_hsbcsr_half_the_nd_payload_of_bcsr(self, matrix):
        h = HSBCSRMatrix.from_block_matrix(matrix)
        b = BCSRMatrix.from_block_matrix(matrix)
        nd_h = h.nd_data.nbytes
        nd_b = b.data.nbytes - matrix.n * BS * BS * 8  # minus diagonal
        assert nd_h < 0.6 * nd_b

    def test_hsbcsr_index_overhead_below_csr(self, matrix):
        # one (row, col) pair per 6x6 block vs one column index per scalar
        h = HSBCSRMatrix.from_block_matrix(matrix)
        c = CSRMatrix.from_block_matrix(matrix)
        idx_h = (h.rows.nbytes + h.cols.nbytes + h.row_up_i.nbytes
                 + h.row_low_i.nbytes + h.row_low_p.nbytes)
        assert idx_h < 0.25 * c.indices.nbytes

    def _times(self, n, m, seed=3):
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        a = synthetic_block_matrix(n, m, seed=seed)
        x = np.random.default_rng(0).normal(size=a.n * BS)
        times = {}
        for name, build, run in (
            ("hsbcsr", HSBCSRMatrix.from_block_matrix, hsbcsr_spmv),
            ("csr", CSRMatrix.from_block_matrix, csr_spmv),
            ("bcsr", BCSRMatrix.from_block_matrix, bcsr_spmv),
        ):
            dev = VirtualDevice(K40)
            run(build(a), x, dev)
            times[name] = dev.total_time
        return times

    def test_hsbcsr_beats_csr_at_mid_size(self):
        times = self._times(500, 2000)
        assert times["hsbcsr"] < times["csr"]

    def test_hsbcsr_bcsr_crossover_with_scale(self):
        # honest crossover: BCSR's single launch wins while launch
        # overhead dominates; HSBCSR's half-traffic advantage takes over
        # once the matrix is large enough (the Fig-10 regime)
        small = self._times(500, 2000)
        large = self._times(4361, 18731)
        assert small["bcsr"] < small["hsbcsr"]
        assert large["hsbcsr"] < large["bcsr"]
