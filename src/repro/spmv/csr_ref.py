"""Scalar CSR SpMV — the "cuSPARSE" baseline of the paper's Fig. 10.

cuSPARSE's general CSR kernel cannot exploit the DDA matrix's blockiness
or symmetry: the full matrix (both triangles) must be materialised, every
non-zero carries an explicit column index, and the row-length imbalance
costs idle lanes in the warp-per-row kernel. The paper additionally
charges this path the *recovery* step (expanding the stored upper triangle
to a full matrix), because assembly produces only the upper half and runs
inside the innermost loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import segment_sum
from repro.util.validation import check_array


@dataclass
class CSRMatrix:
    """Scalar CSR of the *full* (symmetric) matrix."""

    n_rows: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_block_matrix(
        cls,
        a: BlockMatrix,
        device: VirtualDevice | None = None,
        *,
        include_recovery_cost: bool = True,
    ) -> "CSRMatrix":
        """Expand a half-stored block matrix to full scalar CSR.

        When ``device`` is given and ``include_recovery_cost`` is true, the
        expansion kernel (read upper blocks, write both triangles) is
        recorded — the cost the paper says "cannot be ignored in a nested
        loop".
        """
        out = cls(a.n * BS, *a.to_csr_arrays())
        if device is not None and include_recovery_cost:
            half_bytes = (a.n + a.n_offdiag) * BS * BS * 8
            full_bytes = (a.n + 2 * a.n_offdiag) * BS * BS * (8 + 4)
            device.launch(
                "csr_recover_full",
                KernelCounters(
                    flops=1.0 * (a.n + 2 * a.n_offdiag) * BS * BS,
                    global_bytes_read=float(half_bytes),
                    global_bytes_written=float(full_bytes),
                    global_txn_read=coalesced_transactions(half_bytes // 8, 8),
                    # transposed scatter of the lower half is uncoalesced
                    global_txn_written=coalesced_transactions(full_bytes // 8, 8)
                    * 2.0,
                    threads=(a.n + 2 * a.n_offdiag) * BS,
                    warps=max(1, (a.n + 2 * a.n_offdiag) * BS // WARP_SIZE),
                ),
            )
        return out

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def storage_bytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)


def csr_spmv(
    a: CSRMatrix,
    x: np.ndarray,
    device: VirtualDevice | None = None,
) -> np.ndarray:
    """``y = A x`` with the warp-per-row vector-CSR kernel model.

    ``x`` has shape ``(n_rows,)``; returns ``y`` of the same shape.
    """
    x = check_array("x", x, dtype=np.float64, shape=(a.n_rows,))
    # the real computation
    y = np.zeros(a.n_rows)
    contrib = a.data * x[a.indices]
    row_lengths = np.diff(a.indptr)
    nonempty = np.flatnonzero(row_lengths > 0)
    if nonempty.size:  # lint: sync-ok[empty-batch] -- segment reduction only for non-empty rows
        sums = segment_sum(contrib, a.indptr[:-1][nonempty])
        y[nonempty] = sums

    if device is not None:
        nnz = a.nnz
        # warp-per-row: every row costs at least one warp-width sweep of
        # its longest lane — model imbalance as padding to the warp size
        padded = np.maximum(row_lengths, 1)
        padded = ((padded + WARP_SIZE - 1) // WARP_SIZE) * WARP_SIZE
        # cost-model statistic for the launch, not the data path
        imbalance = float(padded.sum()) / max(1, nnz)  # lint: sync-ok[cost-model] -- imbalance statistic feeds the launch model
        device.launch(
            "csr_vector_spmv",
            KernelCounters(
                flops=2.0 * nnz * imbalance,
                global_bytes_read=nnz * (8 + 4) + (a.n_rows + 1) * 8,
                global_bytes_written=a.n_rows * 8,
                global_txn_read=coalesced_transactions(nnz, 12)
                + coalesced_transactions(a.n_rows + 1, 8),
                global_txn_written=coalesced_transactions(a.n_rows, 8),
                # x gathers by explicit scalar column index: the x vector
                # exceeds the texture cache at Case-1 sizes, so each
                # distinct 32-byte segment a warp touches is fetched —
                # measured from the actual index pattern. This scattered
                # single-double access is the traffic HSBCSR's 48-byte
                # block-run gathers avoid.
                texture_bytes=32.0
                * float(gather_transactions(a.indices, 8,
                                            transaction_bytes=32)),
                shared_accesses=2.0 * a.n_rows,
                threads=int(padded.sum()),
                warps=int(padded.sum() // WARP_SIZE),
            ),
        )
    return y
