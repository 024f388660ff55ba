"""Fig. 10 — SpMV and TSS times on the GPU (the HSBCSR headline).

Paper: on the Case-1 matrix (4361 diagonal + 18731 non-diagonal 6x6
blocks), SpMV-HSBCSR is **2.8x** faster than SpMV-cuSPARSE, and the
triangular system solve (TSS) costs ~**11x** an SpMV.

This bench builds a synthetic matrix with the paper's exact block counts,
runs the real kernels, and compares modelled Tesla K40 times.
"""

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.io.reporting import ComparisonReport
from repro.solvers.triangular import ilu0_factorize, level_schedule, sparse_triangular_solve
from repro.spmv.csr_ref import CSRMatrix, csr_spmv
from repro.spmv.formats import BCSRMatrix, bcsr_spmv
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix

#: The paper's Case-1 matrix dimensions.
N_DIAG, N_OFFDIAG = 4361, 18731


@pytest.fixture(scope="module")
def case1_matrix():
    return synthetic_block_matrix(N_DIAG, N_OFFDIAG, seed=1)


@pytest.fixture(scope="module")
def x_vector(case1_matrix):
    return np.random.default_rng(0).normal(size=case1_matrix.n * 6)


@pytest.fixture(scope="module")
def modelled_times(case1_matrix, x_vector):
    a, x = case1_matrix, x_vector
    out = {}

    dev = VirtualDevice(K40)
    h = HSBCSRMatrix.from_block_matrix(a)
    y_h = hsbcsr_spmv(h, x, dev)
    out["hsbcsr"] = dev.total_time

    dev = VirtualDevice(K40)
    c = CSRMatrix.from_block_matrix(a)  # recovery cost counted separately
    y_c = csr_spmv(c, x, dev)
    out["csr"] = dev.total_time
    dev = VirtualDevice(K40)
    CSRMatrix.from_block_matrix(a, dev, include_recovery_cost=True)
    out["csr_recovery"] = dev.total_time

    dev = VirtualDevice(K40)
    bc = BCSRMatrix.from_block_matrix(a)
    y_b = bcsr_spmv(bc, x, dev)
    out["bcsr"] = dev.total_time

    np.testing.assert_allclose(y_c, y_h, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(y_b, y_h, rtol=1e-9, atol=1e-9)

    # TSS on the ILU factors of the same matrix
    indptr, indices, data = a.to_csr_arrays()
    lu = ilu0_factorize(indptr, indices, data)
    lo_levels = level_schedule(indptr, indices, lower=True)
    up_levels = level_schedule(indptr, indices, lower=False)
    dev = VirtualDevice(K40)
    y = sparse_triangular_solve(indptr, indices, lu, x, lower=True,
                                unit_diagonal=True, device=dev,
                                levels=lo_levels)
    sparse_triangular_solve(indptr, indices, lu, y, lower=False,
                            device=dev, levels=up_levels)
    out["tss"] = dev.total_time
    out["tss_levels"] = int(lo_levels.max()) + int(up_levels.max()) + 2
    _write_report(out)
    return out


def _write_report(t) -> None:
    report = ComparisonReport(
        "Fig 10", "SpMV and TSS on the Case-1-sized matrix (modelled K40)"
    )
    report.add("matrix: diagonal blocks", 4361, N_DIAG)
    report.add("matrix: non-diagonal blocks", 18731, N_OFFDIAG)
    report.add("SpMV HSBCSR/cuSPARSE speed-up", 2.8,
               round(t["csr"] / t["hsbcsr"], 3))
    report.add("TSS / SpMV cost ratio", 11.0, round(t["tss"] / t["csr"], 2))
    report.add("HSBCSR SpMV time (us)", "", round(t["hsbcsr"] * 1e6, 2))
    report.add("CSR SpMV time (us)", "", round(t["csr"] * 1e6, 2))
    report.add("CSR full-matrix recovery (us)", "",
               round(t["csr_recovery"] * 1e6, 2))
    report.add("BCSR SpMV time (us)", "", round(t["bcsr"] * 1e6, 2))
    report.add("TSS time (us)", "", round(t["tss"] * 1e6, 2))
    report.add("TSS level count", "", t["tss_levels"])
    report.note(
        "synthetic slope-contact sparsity with the paper's exact block "
        "counts; absolute times are modelled, ratios are the comparison"
    )
    report.write(RESULTS_DIR)
    print()
    print(report.render())


def test_fig10_hsbcsr_beats_csr(modelled_times):
    speedup = modelled_times["csr"] / modelled_times["hsbcsr"]
    # paper: 2.8x; require the same direction and at least 1.5x
    assert speedup > 1.5, f"HSBCSR only {speedup:.2f}x faster than CSR"


def test_fig10_hsbcsr_beats_bcsr(modelled_times):
    # half storage beats full block storage
    assert modelled_times["hsbcsr"] < modelled_times["bcsr"]


def test_fig10_tss_dominates_spmv(modelled_times):
    ratio = modelled_times["tss"] / modelled_times["csr"]
    # paper: TSS ~11x one SpMV; require at least 3x
    assert ratio > 3.0, f"TSS only {ratio:.2f}x an SpMV"


def test_fig10_spmv_benchmark(benchmark, case1_matrix, x_vector, modelled_times):
    """Wall-clock of the HSBCSR SpMV NumPy kernel at Case-1 size."""
    h = HSBCSRMatrix.from_block_matrix(case1_matrix)

    def spmv():
        return hsbcsr_spmv(h, x_vector)

    y = benchmark(spmv)
    assert y.shape == (case1_matrix.n * 6,)
