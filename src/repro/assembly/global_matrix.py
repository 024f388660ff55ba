"""The block-sparse symmetric global matrix and its assembler's front door.

:class:`BlockMatrix` stores what the paper's solver consumes: the ``n``
diagonal 6x6 blocks plus the strictly-upper non-diagonal blocks (the lower
triangle is implied by symmetry and never materialised — the HSBCSR SpMV
exploits exactly this).

Assembly input is a *contribution stream*: every contact produces one
``K_ii``, one ``K_jj`` and one ``K_ij`` 6x6 block, and several contacts
touch the same (i, j). There is one assembler, the paper's Fig.-4 scheme
— radix-sort the contributions by block key, find segment boundaries with
the flag + scan construction, and segment-reduce — which is how the GPU
version avoids memory write conflicts without atomics. It lives in
:mod:`repro.assembly.symbolic`, split into a symbolic phase (everything
the index pattern decides) and a numeric phase (the payload sums);
:func:`assemble_gpu` runs one after the other. The CPU presets call it
without a device and charge their own serial launch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import VirtualDevice
from repro.primitives.scatter import scatter_add
from repro.util.validation import check_array

#: Side length of every sub-matrix (6 DOF per block).
BS = 6


@dataclass
class BlockMatrix:
    """Symmetric block-sparse matrix: diagonal + strictly-upper blocks.

    Attributes
    ----------
    n:
        Number of block rows/columns (matrix is ``6n x 6n`` scalar-wise).
    diag:
        ``(n, 6, 6)`` diagonal blocks.
    rows, cols:
        ``(m,)`` upper-triangle block coordinates, ``rows[k] < cols[k]``,
        sorted lexicographically by (row, col), no duplicates.
    blocks:
        ``(m, 6, 6)`` the upper non-diagonal blocks; ``A[j, i] = A[i, j]^T``.
    """

    n: int
    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.diag = check_array("diag", self.diag, dtype=np.float64,
                                shape=(self.n, BS, BS))
        m = self.rows.shape[0]
        self.rows = check_array("rows", self.rows, dtype=np.int64, shape=(m,))
        self.cols = check_array("cols", self.cols, dtype=np.int64, shape=(m,))
        self.blocks = check_array("blocks", self.blocks, dtype=np.float64,
                                  shape=(m, BS, BS))
        if m:
            if not (self.rows < self.cols).all():  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("off-diagonal entries must satisfy row < col")
            if self.cols.max() >= self.n or self.rows.min() < 0:  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("block index out of range")
            key = self.rows * self.n + self.cols
            if np.any(np.diff(key) <= 0):  # lint: sync-ok[validation-gate] -- structure check at construction, raises before use
                raise ValueError("off-diagonal entries must be sorted, unique")

    @property
    def n_offdiag(self) -> int:
        """Number of stored (upper) non-diagonal blocks."""
        return self.rows.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference ``A @ x`` (both triangles applied), NumPy only."""
        x = check_array("x", x, dtype=np.float64, shape=(self.n * BS,))
        xb = x.reshape(self.n, BS)
        y = np.einsum("nij,nj->ni", self.diag, xb)
        if self.n_offdiag:
            upper = np.einsum("mij,mj->mi", self.blocks, xb[self.cols])
            lower = np.einsum("mji,mj->mi", self.blocks, xb[self.rows])
            scatter_add(y, self.rows, upper)
            scatter_add(y, self.cols, lower)
        return y.reshape(-1)

    def to_dense(self) -> np.ndarray:
        """Dense ``(6n, 6n)`` matrix (tests / tiny systems only)."""
        a = np.zeros((self.n * BS, self.n * BS))
        # dense materialisation is for tests/tiny systems, never on GPU
        for i in range(self.n):  # lint: host-ok[DDA001]
            a[i * BS : (i + 1) * BS, i * BS : (i + 1) * BS] = self.diag[i]
        for k in range(self.n_offdiag):  # lint: host-ok[DDA001]
            i, j = self.rows[k], self.cols[k]
            a[i * BS : (i + 1) * BS, j * BS : (j + 1) * BS] = self.blocks[k]
            a[j * BS : (j + 1) * BS, i * BS : (i + 1) * BS] = self.blocks[k].T
        return a

    def to_bcsr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full (symmetric) matrix as block CSR ``(indptr, indices, blocks)``:
        int64 ``(n+1,)`` block-row bounds, int64 ``(nb,)`` block columns
        sorted within each row, ``(nb, 6, 6)`` blocks."""
        n = self.n
        rows = np.concatenate([np.arange(n), self.rows, self.cols])
        cols = np.concatenate([np.arange(n), self.cols, self.rows])
        blocks = np.concatenate(
            [self.diag, self.blocks, self.blocks.transpose(0, 2, 1)]
        )
        order = np.argsort(rows * n + cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, cols[order], blocks[order]

    def to_csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full (symmetric) matrix as scalar CSR ``(indptr, indices, data)``:
        int64 ``(6n+1,)`` row bounds, int64 columns sorted within each
        row, float64 values. Every block's 36 entries are kept, explicit
        zeros included: ``bsr_matrix(...).tocsr()``'s arrays, entry for
        entry."""
        bptr, bcols, blocks = self.to_bcsr_arrays()
        counts = np.diff(bptr)
        start = np.repeat(bptr[:-1], counts)
        # scalar row 6i+r holds, block by block, row r of block row i:
        # entry (r, c) of block k lands at pos[k, r, c]
        first = BS * BS * start + BS * (np.arange(bcols.size) - start)
        row_len = BS * np.repeat(counts, counts)
        r, c = np.arange(BS)[:, None], np.arange(BS)[None, :]
        pos = first[:, None, None] + r * row_len[:, None, None] + c
        indices = np.empty(pos.size, dtype=np.int64)
        indices[pos] = BS * bcols[:, None, None] + c
        data = np.empty(pos.size)
        data[pos] = blocks
        indptr = np.zeros(self.n * BS + 1, dtype=np.int64)
        np.cumsum(np.repeat(BS * counts, BS), out=indptr[1:])
        return indptr, indices, data


def assemble_gpu(
    n: int,
    diag_idx: np.ndarray,
    diag_blocks: np.ndarray,
    off_rows: np.ndarray,
    off_cols: np.ndarray,
    off_blocks: np.ndarray,
    device: VirtualDevice | None = None,
) -> BlockMatrix:
    """The paper's Fig.-4 write-conflict-free assembly, both phases.

    Steps (each a kernel on the virtual device):

    1. every contribution's 6x6 block is already computed in parallel
       (array ``D`` in the paper — here ``off_blocks``);
    2. radix-sort contribution *keys* (block number pairs) — the sub-matrix
       payloads are moved only once, in the final gather;
    3. boundary flags ``di[k] = (SD[k] != SD[k-1])`` + scan give segment
       starts;
    4. segmented reduction sums each (i, j)'s contributions.

    Parameters
    ----------
    n:
        Number of blocks.
    diag_idx, diag_blocks:
        ``(q,)`` block indices with ``(q, 6, 6)`` diagonal contributions
        (duplicates allowed, summed).
    off_rows, off_cols, off_blocks:
        ``(m,)`` + ``(m, 6, 6)`` non-diagonal contributions in either
        orientation (``K_ji`` inputs are transposed into ``K_ij``);
        duplicates summed. ``off_rows[k] == off_cols[k]`` is rejected.
    device:
        Optional virtual device the kernels are recorded on.

    Steps 2–3 are :meth:`~repro.assembly.symbolic.AssemblyPlan.build`,
    step 4 is :meth:`~repro.assembly.symbolic.AssemblyPlan.assemble`.
    """
    # symbolic imports BlockMatrix from this module
    from repro.assembly.symbolic import AssemblyPlan

    return AssemblyPlan.build(
        n, diag_idx, off_rows, off_cols, device
    ).assemble(diag_blocks, off_blocks)
