"""HSBCSR: half slice block compressed sparse row (the paper's format).

Storage (paper Fig. 6/7):

* ``d_data`` / ``nd_data`` — the diagonal and upper non-diagonal 6x6
  blocks, *sliced by local row*: slice ``s`` concatenates row ``s`` of
  every block, in (slice, global row, global column) sort priority, padded
  so each slice's length is a multiple of 32 (the GPU alignment
  condition). Consecutive threads reading consecutive blocks' slice data
  therefore access global memory fully coalesced. The sliced payload is
  what the *ledger prices* (padded widths, coalesced transactions).
* ``rc`` — compressed (row, col) per non-diagonal block (``rows``/``cols``
  here).
* ``row_up_i`` — end position of each block row in the upper storage
  (CSR-style indptr).
* ``row_low_i`` — end position of each block row of the *implied lower
  triangle* (CSC-style indptr over the upper storage).
* ``row_low_p`` — for each lower-triangle entry (in (col, row) order), the
  position of its transposed source block in the upper storage.

The SpMV (paper Figs. 8/9) runs in two stages, two launches:

1. every stored block ``A_k`` (row i, col j) computes
   ``up_res[k] = A_k x_j`` (shared-memory reduction, bank-conflict-free)
   and ``low_res[k] = A_k^T x_i`` (register accumulation across slices),
   and every diagonal block ``diag_res[i] = D_i x_i`` — the paper's
   separate diagonal pass, joined to stage 1 here (an extension beyond
   Fig. 9);
2. ``up_res`` is segment-summed by ``row_up_i`` (coalesced — six-row
   integer reads by 48-thread groups) and ``low_res`` gathered through
   ``row_low_p`` (texture path) and segment-summed by ``row_low_i``;
   each row then adds up + low + ``diag_res``.

The index arrays are what the *host runs*: :class:`TwoStageOperator`
executes these stages as two compiled calls (the
:mod:`repro.primitives.scatter` seam) gathered through ``rc`` /
``row_up_i`` / ``row_low_i`` / ``row_low_p``. It is the one
implementation behind :func:`hsbcsr_spmv`, SSOR-AI's triangular halves
and the distributed SpMV (:func:`repro.domain.assembly.split_matrix`:
stage 1 gathers stacked per-domain slots instead of the canonical
vector). Every sum runs strictly left to right (each 6-term dot, each
segment, then up + low + diagonal), so wherever a gathered slot holds
the value of the block it stands for, the product is the global one bit
for bit.

The same order lets the host drop an all-zero block, whose terms add
nothing: :class:`HSBCSRMatrix` and SSOR-AI run a
:class:`ZeroSkippingOperator`, while the ledger prices every block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import PricedLaunches, VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import BlockRowProduct, GatherSegmentSum, segment_indptr
from repro.util.validation import check_array

#: Slice lengths are padded to a multiple of this (GPU alignment).
SLICE_ALIGN = 32


def _pad_to(n: int, align: int) -> int:
    return ((n + align - 1) // align) * align


def _slice_blocks(blocks: np.ndarray, align: int) -> np.ndarray:
    """Pack ``(m, 6, 6)`` blocks into the ``(6, padded)`` slice layout."""
    m = blocks.shape[0]
    width = _pad_to(m * BS, align)
    data = np.zeros((BS, width))
    if m:
        # slice s holds row s of every block, blocks in storage order
        data[:, : m * BS] = blocks.transpose(1, 0, 2).reshape(BS, m * BS)
    return data


@dataclass(frozen=True)
class TwoStageOperator:
    """The two-stage half-stored block kernel, in two compiled calls.

    ``stage1``, over the one payload ``[A_k | A_k^T | D_i]``: each row
    multiplies the input block its gather names — ``x_j`` for row ``k``,
    ``x_i`` for row ``m + k``, block ``i`` for diagonal row ``2m + i``.
    ``stage2``: segments ``[0, n)`` sum the upper results over
    ``row_up_i``, ``[n, 2n)`` the lower ones through ``row_low_p`` over
    ``row_low_i`` (``up_reduce`` and ``low_reduce``, stacked). The
    ``*_product`` halves are row ranges of stage 1 (views).
    """

    stage1: BlockRowProduct
    stage2: GatherSegmentSum
    up_reduce: GatherSegmentSum
    low_reduce: GatherSegmentSum

    @classmethod
    def from_block_matrix(
        cls, a: BlockMatrix, gather: tuple | None = None
    ) -> "TwoStageOperator":
        """The kernel of a whole half-stored matrix; its stage-2 operators
        carry the HSBCSR index arrays (``row_up_i``; ``row_low_i`` and
        ``row_low_p``) they were derived with.

        ``gather`` re-points stage 1 at another input layout:
        ``(up (m,), low (m,), diag (n,), n_in)`` — the input block each
        upper entry, each transposed entry and each diagonal block
        multiplies, and the input's block length. The default is the
        canonical vector, ``(cols, rows, arange(n), n)``; the domain
        split passes slots of its stacked extended vector.
        """
        m, n = a.n_offdiag, a.n
        up, low, diag, n_in = gather or (
            a.cols, a.rows, np.arange(n, dtype=np.int64), n
        )
        up_ptr, low_ptr = segment_indptr(a.rows, n), segment_indptr(a.cols, n)
        # lower triangle: entry (j, i) for each upper (i, j); sorted by
        # (col, row) of the upper — i.e. by the lower entry's row
        row_low_p = np.lexsort((a.rows, a.cols)).astype(np.int64)
        ident = np.arange(m, dtype=np.int64)
        return cls(
            BlockRowProduct(_payload(a), np.concatenate([up, low, diag]), n_in),
            GatherSegmentSum(
                np.concatenate([up_ptr, low_ptr[1:] + m]),
                np.concatenate([ident, row_low_p + m]),
            ),
            GatherSegmentSum(up_ptr, ident),
            GatherSegmentSum(low_ptr, row_low_p),
        )

    def with_values(self, a: BlockMatrix) -> "TwoStageOperator":
        """Same structure, the payload of ``a`` (same sparsity pattern)."""
        return replace(self, stage1=self.stage1.with_blocks(_payload(a)))

    @cached_property
    def up_product(self) -> BlockRowProduct:
        return self.stage1.rows(0, self.up_reduce.gather.size)

    @cached_property
    def low_product(self) -> BlockRowProduct:
        m = self.up_reduce.gather.size
        return self.stage1.rows(m, 2 * m)

    @cached_property
    def diag_product(self) -> BlockRowProduct:
        return self.stage1.rows(2 * self.up_reduce.gather.size, None)

    def upper(self, x: np.ndarray) -> np.ndarray:
        """Upper-half product ``(n_out, 6)`` from ``(n_in*6,)``."""
        return self.up_reduce(self.up_product(x))

    def lower(self, x: np.ndarray) -> np.ndarray:
        """Lower-half (transposed) product ``(n_out, 6)`` from ``(n_in*6,)``."""
        return self.low_reduce(self.low_product(x))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Full product ``(n_out*6,)``: up, then low, then diagonal."""
        v = self.stage1(x)
        s, d = self.stage2(v), v[2 * self.up_reduce.gather.size :]
        y = s[: len(d)] + s[len(d) :]
        y += d
        return y.reshape(-1)


def _payload(a: BlockMatrix) -> np.ndarray:
    """``(2m+n, 6, 6)`` stage-1 payload: blocks, transposes, diagonal."""
    return np.concatenate([a.blocks, a.blocks.transpose(0, 2, 1), a.diag])


@dataclass(frozen=True)
class ZeroSkippingOperator(TwoStageOperator):
    """The :class:`TwoStageOperator` of the off-diagonal blocks of
    ``matrix`` that are not all zero (``keep``; ``skips`` if one is).

    Each dot and each segment sums from ``0.0``, so on a finite input an
    all-zero block (``-0.0`` entries included) adds only ``+0.0`` terms
    to sums that are never ``-0.0``: dropping it changes no bit of the
    product or of either half. A non-finite input (``0 * inf`` is NaN)
    runs the operator of every stored block, built on first use.
    """

    matrix: BlockMatrix | None = None
    keep: np.ndarray | None = None
    skips: bool = False

    @classmethod
    def of(cls, a: BlockMatrix, like: "ZeroSkippingOperator | None" = None):
        """The operator of ``a``; ``like``, one of the same stored
        pattern, lends its structure if it kept the same blocks."""
        keep = a.blocks.reshape(a.n_offdiag, BS * BS).any(axis=1)
        nonzero = a if keep.all() else replace(  # lint: sync-ok[structure-reuse] -- host sizes the payload once per matrix
            a, rows=a.rows[keep], cols=a.cols[keep], blocks=a.blocks[keep]
        )
        if like is not None and np.array_equal(like.keep, keep):  # lint: sync-ok[structure-reuse] -- host checks which blocks the kept structure dropped
            op, stage1 = like, like.stage1.with_blocks(_payload(nonzero))
        else:
            op = TwoStageOperator.from_block_matrix(nonzero)
            stage1 = op.stage1
        return cls(stage1, op.stage2, op.up_reduce, op.low_reduce, a, keep,
                   nonzero is not a)

    def with_values(self, a: BlockMatrix) -> "ZeroSkippingOperator":
        return self.of(a, like=self)

    @cached_property
    def full(self) -> TwoStageOperator:
        return TwoStageOperator.from_block_matrix(self.matrix)

    def _for(self, x: np.ndarray):
        if self.skips and not np.isfinite(x).all():  # lint: sync-ok[stage-skip] -- host picks the payload a product runs on
            return self.full
        return super()

    def upper(self, x: np.ndarray) -> np.ndarray:
        return self._for(x).upper(x)

    def lower(self, x: np.ndarray) -> np.ndarray:
        return self._for(x).lower(x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._for(x).__call__(x)


@dataclass
class HSBCSRMatrix:
    """A :class:`BlockMatrix` converted to the HSBCSR layout; the sliced
    payloads are derived from ``matrix`` when first read."""

    n: int
    n_offdiag: int
    rows: np.ndarray          # (m,) block row per upper entry
    cols: np.ndarray          # (m,) block col per upper entry
    row_up_i: np.ndarray      # (n+1,) indptr over rows of the upper storage
    row_low_i: np.ndarray     # (n+1,) indptr over rows of the implied lower
    row_low_p: np.ndarray     # (m,) upper-storage position of each lower entry
    matrix: BlockMatrix
    op: ZeroSkippingOperator  # the host kernel of matrix
    align: int = SLICE_ALIGN
    # the SpMV's launches: once per sparsity pattern, shared by rebuilds
    _cost: PricedLaunches | None = None

    @classmethod
    def from_block_matrix(
        cls,
        a: BlockMatrix,
        *,
        align: int = SLICE_ALIGN,
        structure: "HSBCSRMatrix | None" = None,
    ) -> "HSBCSRMatrix":
        """Build the HSBCSR layout (blocks are already (row, col) sorted).

        ``structure`` optionally names a previously-built matrix with
        the same ``(n,)`` dimensions and identical ``(m,)`` sparsity
        pattern: its index arrays, any cached cost counters and — when
        the same blocks are all zero — the operator's structure half are
        shared instead of re-derived. The pattern is verified exactly;
        a mismatch falls back to a full build.
        """
        if (
            structure is not None  # lint: sync-ok[structure-reuse] -- host checks cached sparsity before reuse
            and structure.n == a.n
            and structure.n_offdiag == a.n_offdiag
            and structure.align == align
            and np.array_equal(structure.rows, a.rows)
            and np.array_equal(structure.cols, a.cols)
        ):
            return replace(structure, matrix=a, op=structure.op.with_values(a))
        return cls(
            a.n, a.n_offdiag, a.rows.copy(), a.cols.copy(),
            segment_indptr(a.rows, a.n), segment_indptr(a.cols, a.n),
            # lower triangle: entry (j, i) for each upper (i, j), sorted
            # by the lower entry's row
            np.lexsort((a.rows, a.cols)).astype(np.int64),
            a, ZeroSkippingOperator.of(a), align,
        )

    # ------------------------------------------------------------------
    @cached_property
    def d_data(self) -> np.ndarray:  # (6, pad(n*6))
        return _slice_blocks(self.matrix.diag, self.align)

    @cached_property
    def nd_data(self) -> np.ndarray:  # (6, pad(m*6))
        return _slice_blocks(self.matrix.blocks, self.align)

    @property
    def storage_bytes(self) -> int:
        """Bytes of block data + indices actually stored."""
        return int(
            self.d_data.nbytes
            + self.nd_data.nbytes
            + self.rows.nbytes
            + self.cols.nbytes
            + self.row_up_i.nbytes
            + self.row_low_i.nbytes
            + self.row_low_p.nbytes
        )


def hsbcsr_spmv(
    a: HSBCSRMatrix,
    x: np.ndarray,
    device: VirtualDevice | None = None,
) -> np.ndarray:
    """``y = A x`` using the two-stage HSBCSR kernel.

    ``x`` has shape ``(6 n,)``; returns ``y`` of the same shape. The
    host runs ``a.op`` — stage 1 gathered through ``rc`` (the diagonal
    rows included), stage 2 over ``row_up_i`` / ``row_low_i`` /
    ``row_low_p`` — while the modelled cost is priced from the sliced
    payload: the coalesced slice reads, the texture-path vector gathers,
    the bank-conflict-free shared reduction of Fig. 8, and the
    regular/irregular stage-2 reductions of Fig. 9.
    """
    x = check_array("x", x, dtype=np.float64, shape=(a.n * BS,))
    y = a.op(x)
    if device is not None:
        spmv_launches(a).record(device)
    return y


def spmv_launches(a: HSBCSRMatrix) -> PricedLaunches:
    """The SpMV's two launches, stage 1 then stage 2, priced once per
    device and region (:class:`PricedLaunches`) — the ledger is record
    for record what launching them each call writes.

    The counters depend only on the matrix *structure* (its shape, nnz,
    padded slice widths), so they are built once per structure and
    shared by value-only rebuilds.
    """
    if a._cost is None:
        a._cost = PricedLaunches(*_cost_launches(a))
    return a._cost


def _cost_launches(a: HSBCSRMatrix) -> list[tuple[str, KernelCounters]]:
    """Build the ``(name, counters)`` ledger (scalar metadata only)."""
    m, n = a.n_offdiag, a.n
    nd_width, d_width = _pad_to(m * BS, a.align), _pad_to(n * BS, a.align)
    return [
        # stage 1 over [A_k | A_k^T | D_i]: slice reads coalesced; the
        # input blocks through texture (x_j: 48-byte runs, two 32-byte
        # segments each; x_i repeats along a block row — the (row, col)
        # sort — so its fetches hit cache; the diagonal's x_i once); the
        # Fig-8 shared reduction is conflict-free by construction
        (
            "hsbcsr_stage1",
            KernelCounters(
                flops=4.0 * m * BS * BS + 2.0 * n * BS * BS,  # up, low, diag
                global_bytes_read=BS * 8.0 * (nd_width + d_width),  # sliced
                global_bytes_written=(2 * m + n) * BS * 8.0,
                global_txn_read=coalesced_transactions(nd_width * BS, 8)
                + coalesced_transactions(d_width * BS, 8)
                + 2 * coalesced_transactions(m, 8),  # rc indices
                global_txn_written=coalesced_transactions((2 * m + n) * BS, 8),
                texture_bytes=(3.0 * m + n) * BS * 8,
                shared_accesses=2.0 * m * BS,     # Fig-8 reduction
                shared_bank_conflict_extra=0.0,
                threads=(m + n) * BS,
                warps=max(1, (m + n) * BS // WARP_SIZE),
            ),
        ),
        # stage 2, per row: up_res summed in coalesced 48-thread row
        # groups, low_res gathered through texture, then up + low + diag
        (
            "hsbcsr_stage2",
            KernelCounters(
                flops=2.0 * (2 * m * BS) + 2.0 * n * BS,
                global_bytes_read=(m + n) * BS * 8 + 2 * (n + 1) * 8 + m * 8,
                global_bytes_written=n * BS * 8,
                global_txn_read=coalesced_transactions(m * BS, 8)
                + coalesced_transactions(2 * (n + 1) + m, 8)
                + coalesced_transactions(n * BS, 8),  # diag_res
                global_txn_written=coalesced_transactions(n * BS, 8),
                texture_bytes=float(m * BS * 8),  # low_res gathered
                shared_accesses=2.0 * m * BS / 8.0,
                threads=n * BS,
                warps=max(1, n * BS // WARP_SIZE),
            ),
        ),
    ]
