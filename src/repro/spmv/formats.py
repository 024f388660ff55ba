"""Reference block SpMV format (the related-work baseline).

**BCSR** — block CSR of the *full* matrix: exploits blockiness (one
column index per 6x6 block) but not symmetry, so it stores and streams
twice the non-diagonal data HSBCSR does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import segment_sum
from repro.util.validation import check_array


@dataclass
class BCSRMatrix:
    """Block CSR of the full symmetric matrix (6x6 blocks)."""

    n: int
    indptr: np.ndarray   # (n+1,) block-row pointers
    indices: np.ndarray  # (nb,) block column per stored block
    data: np.ndarray     # (nb, 6, 6)

    @classmethod
    def from_block_matrix(cls, a: BlockMatrix) -> "BCSRMatrix":
        return cls(a.n, *a.to_bcsr_arrays())

    @property
    def storage_bytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)


def bcsr_spmv(
    a: BCSRMatrix, x: np.ndarray, device: VirtualDevice | None = None
) -> np.ndarray:
    """``y = A x`` with a block-row-per-warp BCSR kernel model.

    ``x`` has shape ``(6 n,)``; returns ``y`` of the same shape.
    """
    x = check_array("x", x, dtype=np.float64, shape=(a.n * BS,))
    xb = x.reshape(a.n, BS)
    prod = np.einsum("kij,kj->ki", a.data, xb[a.indices])
    y = np.zeros((a.n, BS))
    lengths = np.diff(a.indptr)
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size:  # lint: sync-ok[empty-batch] -- segment reduction only for non-empty rows
        y[nonempty] = segment_sum(prod, a.indptr[:-1][nonempty], axis=0)
    if device is not None:
        nb = a.indices.size
        device.launch(
            "bcsr_spmv",
            KernelCounters(
                flops=2.0 * nb * BS * BS,
                global_bytes_read=nb * (BS * BS * 8 + 4) + (a.n + 1) * 8,
                global_bytes_written=a.n * BS * 8,
                global_txn_read=coalesced_transactions(nb * BS * BS, 8)
                + coalesced_transactions(nb, 4),
                global_txn_written=coalesced_transactions(a.n * BS, 8),
                # block-run x gathers: 48-byte contiguous runs fetch two
                # 32-byte segments each (50% fetch efficiency)
                texture_bytes=2.0 * float(nb * BS * 8),
                shared_accesses=2.0 * nb * BS,
                threads=nb * BS,
                warps=max(1, nb * BS // WARP_SIZE),
            ),
        )
    return y.reshape(-1)
