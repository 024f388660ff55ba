"""Ablation — HSBCSR slice alignment (a design choice of Fig. 6).

"The length of one slice is a multiple of 32 to satisfy the alignment
condition of the GPU's global memory access." This ablation sweeps the
alignment (1 = unpadded, 8, 32, 128) and reports the storage overhead of
padding; the 32 default costs <1% padding at Case-1 sizes while
guaranteeing every slice row starts on a 256-byte boundary.
"""

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR
from repro.io.reporting import ComparisonReport
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix

ALIGNMENTS = (1, 8, 32, 128)


@pytest.fixture(scope="module")
def matrix():
    return synthetic_block_matrix(1000, 4200, seed=5)


@pytest.fixture(scope="module")
def sweep(matrix):
    rng = np.random.default_rng(0)
    x = rng.normal(size=matrix.n * 6)
    baseline = matrix.matvec(x)
    out = {}
    for align in ALIGNMENTS:
        h = HSBCSRMatrix.from_block_matrix(matrix, align=align)
        np.testing.assert_allclose(hsbcsr_spmv(h, x), baseline, rtol=1e-9)
        out[align] = h.storage_bytes
    report = ComparisonReport(
        "Ablation slice alignment", "HSBCSR padding overhead vs alignment"
    )
    for align in ALIGNMENTS:
        overhead = out[align] / out[1] - 1.0
        report.add(f"align={align} storage overhead (%)",
                   "<1% at align=32", round(100 * overhead, 4))
    report.write(RESULTS_DIR)
    print()
    print(report.render())
    return out


def test_padding_overhead_negligible_at_32(sweep):
    assert sweep[32] / sweep[1] - 1.0 < 0.01


def test_results_independent_of_alignment(sweep):
    # covered inside the fixture via allclose; here assert monotone storage
    sizes = [sweep[a] for a in ALIGNMENTS]
    assert sizes == sorted(sizes)


def test_alignment_benchmark(benchmark, matrix, sweep):
    rng = np.random.default_rng(0)
    x = rng.normal(size=matrix.n * 6)
    h = HSBCSRMatrix.from_block_matrix(matrix, align=32)
    benchmark(hsbcsr_spmv, h, x)
