"""Per-domain submatrix extraction from a global :class:`BlockMatrix`.

Assembly stays global (bit-identical to the serial engine by
construction); this module *splits* the assembled matrix into one
:class:`DomainMatrix` per domain:

* the diagonal blocks of the owned rows;
* the **up phase** — every stored upper entry whose row is owned, kept
  in the global (row, col) sort order;
* the **low phase** — every stored upper entry whose column is owned
  (its transpose contributes to an owned row), with the (col, row)
  gather permutation of the HSBCSR SpMV;
* a local owned x owned :class:`BlockMatrix` plus an extended
  (owned + ghost) one — the operands of the domain-decomposed
  preconditioners (block-Jacobi across domains, overlapping additive
  Schwarz), cut on first access: the default ladder never reads them.

The three pieces are held as one
:class:`~repro.spmv.hsbcsr.TwoStageOperator` — the same kernel
:func:`repro.spmv.hsbcsr.hsbcsr_spmv` runs. Because each phase's entries
are an order-preserving subset of the global HSBCSR traversal and the
kernel sums strictly left to right (up, low, diagonal), ``domain_spmv``
reproduces the global product bit-for-bit on the owned rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix, _canonical_offdiag
from repro.domain.halo import DomainMap, ExchangePlan
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import BlockRowProduct, GatherSegmentSum
from repro.spmv.hsbcsr import TwoStageOperator, segment_indptr


@dataclass(frozen=True)
class DomainMatrix:
    """One domain's operands for the distributed SpMV and solves.

    Attributes
    ----------
    domain:
        Domain index (scalar).
    n_local, n_ext:
        Owned / owned+ghost block counts (scalars).
    op:
        The two-stage kernel over this domain's entries: up half =
        entries with owned row (global (row, col) order, gathering the
        column's extended-vector slot), low half = entries with owned
        column (gathering the row's slot, summed in (col, row) order),
        diagonal = the owned diagonal blocks.
    m_up, m_low:
        Entry counts of the two halves (scalars; what the ledger prices).
    source:
        ``(matrix, dmap, plan)`` this split was cut from — what
        :attr:`local` and :attr:`extended` are built from when first read.
    """

    domain: int
    n_local: int
    n_ext: int
    op: TwoStageOperator
    m_up: int
    m_low: int
    source: tuple = field(repr=False)
    #: ``[device, records]`` once :func:`domain_spmv` has charged a device
    _cost: list = field(default_factory=list, init=False, repr=False)

    @cached_property
    def local(self) -> BlockMatrix:
        """Owned x owned coupling as a local-index :class:`BlockMatrix`."""
        matrix, dmap, _ = self.source
        rows, cols = matrix.rows, matrix.cols
        both = np.flatnonzero(
            (dmap.labels[rows] == self.domain)
            & (dmap.labels[cols] == self.domain)
        )
        return BlockMatrix(
            n=self.n_local,
            diag=matrix.diag[dmap.owned[self.domain]],
            rows=dmap.local[rows[both]],
            cols=dmap.local[cols[both]],
            blocks=matrix.blocks[both],
        )

    @cached_property
    def extended(self) -> BlockMatrix:
        """Owned+ghost coupling (slot indices) — the overlapping-Schwarz
        operand."""
        matrix, dmap, plan = self.source
        rows, cols = matrix.rows, matrix.cols
        slot = plan.slots[self.domain]
        halo_ids = np.concatenate(
            [dmap.owned[self.domain], plan.ghosts[self.domain]]
        )
        ext_sel = np.flatnonzero((slot[rows] >= 0) & (slot[cols] >= 0))
        return _submatrix(
            self.n_ext,
            matrix.diag[halo_ids],
            slot[rows[ext_sel]],
            slot[cols[ext_sel]],
            matrix.blocks[ext_sel],
        )


def _submatrix(
    n: int,
    diag: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    blocks: np.ndarray,
) -> BlockMatrix:
    """Canonicalised :class:`BlockMatrix` from relabelled ``(m,)`` entries."""
    strict = rows != cols
    r, c, b = _canonical_offdiag(rows[strict], cols[strict], blocks[strict])
    order = np.argsort(r * n + c, kind="stable")
    return BlockMatrix(
        n=n, diag=diag.copy(), rows=r[order], cols=c[order],
        blocks=b[order],
    )


def split_matrix(
    matrix: BlockMatrix, dmap: DomainMap, plan: ExchangePlan
) -> list:
    """Split a global matrix into per-domain operands (list, n_domains).

    Each phase keeps its entries as an order-preserving subset of the
    global HSBCSR traversal, so the distributed SpMV is bit-identical
    on owned rows.
    """
    rows, cols = matrix.rows, matrix.cols
    row_lab = dmap.labels[rows] if rows.size else rows
    col_lab = dmap.labels[cols] if cols.size else cols
    out = []
    for d in range(dmap.n_domains):
        own = dmap.owned[d]
        ghost = plan.ghosts[d]
        slot = plan.slots[d]
        n_local = own.size
        n_ext = n_local + ghost.size

        up_sel = np.flatnonzero(row_lab == d)
        low_sel = np.flatnonzero(col_lab == d)
        op = TwoStageOperator(
            BlockRowProduct(matrix.blocks[up_sel], slot[cols[up_sel]], n_ext),
            GatherSegmentSum(
                segment_indptr(dmap.local[rows[up_sel]], n_local),
                np.arange(up_sel.size, dtype=np.int64),
            ),
            BlockRowProduct(
                matrix.blocks[low_sel].transpose(0, 2, 1),
                slot[rows[low_sel]],
                n_ext,
            ),
            GatherSegmentSum(
                segment_indptr(dmap.local[cols[low_sel]], n_local),
                np.lexsort((rows[low_sel], cols[low_sel])),
            ),
            BlockRowProduct(
                matrix.diag[own], np.arange(n_local, dtype=np.int64), n_ext
            ),
        )
        out.append(DomainMatrix(
            domain=d,
            n_local=n_local,
            n_ext=n_ext,
            op=op,
            m_up=up_sel.size,
            m_low=low_sel.size,
            source=(matrix, dmap, plan),
        ))
    return out


def domain_spmv(dm: DomainMatrix, x_ext: np.ndarray, device=None) -> np.ndarray:
    """Owned rows of ``A @ x``: ``(n_local*6,)`` from ``(n_ext*6,)``.

    Calls the same :class:`~repro.spmv.hsbcsr.TwoStageOperator` kernel
    as :func:`repro.spmv.hsbcsr.hsbcsr_spmv` on this domain's
    order-preserving subset of the entries, so for refreshed ghosts the
    result equals the global SpMV restricted to owned rows, bit for bit.
    """
    y = dm.op(x_ext)
    if device is not None:
        # priced on the first charge, recorded on every one
        priced_on, records = dm._cost or (None, ())
        if priced_on is not device:
            records = _price_spmv(dm, device)
            dm._cost[:] = device, records
        device.record(records)
    return y


def _price_spmv(dm: DomainMatrix, device) -> tuple:
    """The per-domain SpMV's HSBCSR-style launches, priced on ``device``."""
    m = dm.m_up + dm.m_low
    n = dm.n_local
    priced = []
    if m:
        priced.append(device.price(
            "domain_spmv_offdiag",
            KernelCounters(
                flops=2.0 * m * BS * BS,
                global_bytes_read=m * BS * BS * 8.0 + m * 8.0,
                global_bytes_written=n * BS * 8.0,
                global_txn_read=coalesced_transactions(m * BS * BS, 8)
                + coalesced_transactions(m, 8),
                global_txn_written=coalesced_transactions(n * BS, 8),
                texture_bytes=2.0 * m * BS * 8.0,
                shared_accesses=2.0 * m * BS,
                threads=m * BS,
                warps=max(1, m * BS // WARP_SIZE),
            ),
            module="equation_solving",
        ))
    priced.append(device.price(
        "domain_spmv_diag",
        KernelCounters(
            flops=2.0 * n * BS * BS,
            global_bytes_read=n * BS * BS * 8.0 + n * BS * 8.0,
            global_bytes_written=n * BS * 8.0,
            global_txn_read=coalesced_transactions(n * BS * BS, 8)
            + coalesced_transactions(n * BS, 8),
            global_txn_written=coalesced_transactions(n * BS, 8),
            texture_bytes=float(n * BS * 8),
            threads=n * BS,
            warps=max(1, n * BS // WARP_SIZE),
        ),
        module="equation_solving",
    ))
    return tuple(priced)
