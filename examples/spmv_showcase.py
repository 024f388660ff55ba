"""SpMV format showcase: HSBCSR vs CSR / BCSR on the Case-1 matrix.

Builds a synthetic block matrix with the paper's exact Case-1 dimensions
(4361 diagonal, 18731 non-diagonal 6x6 blocks), multiplies it through all
three formats, verifies they agree, and prints the storage footprint and
the modelled Tesla K40 kernel time of each — the comparison behind the
paper's Fig. 10.

Run:  python examples/spmv_showcase.py [--n N] [--m M]
"""

import argparse

import numpy as np

from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.spmv.csr_ref import CSRMatrix, csr_spmv
from repro.spmv.formats import BCSRMatrix, bcsr_spmv
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix
from repro.util.tables import Table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4361,
                        help="diagonal 6x6 blocks (paper Case 1: 4361)")
    parser.add_argument("--m", type=int, default=18731,
                        help="non-diagonal 6x6 blocks (paper Case 1: 18731)")
    args = parser.parse_args()

    print(f"building DDA-like SPD block matrix: n={args.n}, m={args.m} ...")
    a = synthetic_block_matrix(args.n, args.m, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=a.n * 6)

    results = {}
    table = Table(
        "SpMV formats on the Case-1-sized matrix (modelled Tesla K40)",
        ["format", "storage MB", "modelled time (us)", "vs HSBCSR"],
    )

    dev = VirtualDevice(K40)
    h = HSBCSRMatrix.from_block_matrix(a)
    results["HSBCSR"] = hsbcsr_spmv(h, x, dev)
    t_h = dev.total_time
    rows = [("HSBCSR (ours)", h.storage_bytes / 1e6, t_h)]

    dev = VirtualDevice(K40)
    c = CSRMatrix.from_block_matrix(a)
    results["CSR"] = csr_spmv(c, x, dev)
    rows.append(("CSR (cuSPARSE-like)", c.storage_bytes / 1e6, dev.total_time))

    dev = VirtualDevice(K40)
    b = BCSRMatrix.from_block_matrix(a)
    results["BCSR"] = bcsr_spmv(b, x, dev)
    rows.append(("BCSR (full)", b.storage_bytes / 1e6, dev.total_time))

    reference = results["HSBCSR"]
    for name, y in results.items():
        np.testing.assert_allclose(y, reference, rtol=1e-9, atol=1e-9)
    print("all formats agree to 1e-9 — correctness OK\n")

    for name, mb, t in rows:
        table.add_row([name, mb, t * 1e6, t / t_h])
    print(table)
    print("\npaper Fig. 10: SpMV-HSBCSR was 2.8x faster than SpMV-cuSPARSE.")


if __name__ == "__main__":
    main()
