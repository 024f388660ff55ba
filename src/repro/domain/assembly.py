"""The domain split of a global :class:`BlockMatrix`: one stacked kernel.

Assembly stays global (bit-identical to the serial engine by
construction); this module *splits* the assembled matrix across the
domains as one :class:`DomainSplit`. Domain ``d``'s share is

* the diagonal blocks of the rows it owns;
* the **up phase** — every stored upper entry whose row it owns;
* the **low phase** — every stored upper entry whose column it owns
  (its transpose contributes to an owned row);

and the shares are not cut apart: the split is the global HSBCSR kernel
(:class:`~repro.spmv.hsbcsr.TwoStageOperator`, the one
:func:`repro.spmv.hsbcsr.hsbcsr_spmv` runs) with every stage-1 gather
re-pointed from the canonical vector into the *owning domain's* slot
range of the stacked extended vector (:class:`~repro.domain.halo
.ExchangePlan`). The operator is block-diagonal over the domains — a
row reads only its own device's owned and ghost slots — while entry
order, stage-2 segments and the left-to-right summation (up, low,
diagonal) are the global traversal's, so every row of the distributed
product equals the global product bit for bit, in the same two
compiled products at any domain count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.halo import DomainMap, ExchangePlan
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.spmv.hsbcsr import TwoStageOperator


@dataclass(frozen=True)
class DomainSplit:
    """Every domain's operands for the distributed SpMV and solves.

    Attributes
    ----------
    matrix, dmap, plan:
        What the split was cut from: the global matrix, the ownership
        map and the exchange plan of the matrix's sparsity pattern.
    op:
        The stacked two-stage kernel, ``(n_ext*6,)`` stacked extended
        vector to canonical ``(n*6,)``: upper entry ``(i, j)`` gathers
        ``j``'s slot in the range of ``i``'s owner, its transpose in the
        lower half ``i``'s slot in the range of ``j``'s owner, diagonal
        block ``i`` its owner's slot of ``i``.
    m_up, m_low:
        ``(n_domains,)`` entry counts of each domain's two halves (with
        the owned block counts, what the ledger prices).
    """

    matrix: BlockMatrix
    dmap: DomainMap
    plan: ExchangePlan
    op: TwoStageOperator
    m_up: np.ndarray
    m_low: np.ndarray

    def matches(self, matrix: BlockMatrix, dmap: DomainMap) -> bool:
        """Whether ``matrix`` under ``dmap`` has exactly the ownership and
        ``(m,)`` sparsity pattern this split was cut for (the reuse gate)."""
        mine = self.matrix
        return (
            dmap is self.dmap
            and matrix.n == mine.n
            and np.array_equal(matrix.rows, mine.rows)  # lint: sync-ok[structure-reuse] -- host checks cached sparsity before reuse
            and np.array_equal(matrix.cols, mine.cols)
        )

    def with_values(self, matrix: BlockMatrix) -> "DomainSplit":
        """The split of a matrix that :meth:`matches`: plan, gathers and
        stage-2 operators shared, only the payloads re-read."""
        return replace(self, matrix=matrix, op=self.op.with_values(matrix))

    def interior(self) -> np.ndarray:
        """``(n,)`` bool: the rows whose every stage-1 gather reads an
        owned slot of their domain — what a device multiplies while its
        ghosts are in flight. The others are its boundary rows."""
        n, labels, offsets = self.matrix.n, self.dmap.labels, self.plan.offsets
        # the output row of each stage-1 row, and where its owner's
        # owned slots end (its ghosts follow them)
        row = np.concatenate([self.matrix.rows, self.matrix.cols, np.arange(n)])
        owned_end = offsets[:-1] + np.bincount(labels, minlength=offsets.size - 1)
        interior = np.ones(n, dtype=bool)
        interior[row[self.op.stage1.index >= owned_end[labels[row]]]] = False
        return interior


def split_matrix(
    matrix: BlockMatrix, dmap: DomainMap, plan: ExchangePlan
) -> DomainSplit:
    """Split a global matrix across the domains of ``dmap``.

    The global kernel's ``(m,)`` entry order and stage 2 are kept; stage
    1 alone moves, each gather into the slot range of the domain that
    owns the entry's output row — so the distributed SpMV maps the
    ``(n_ext*6,)`` stacked extended vector to the canonical ``(n*6,)``
    product bit-identically on every row and never reads another
    domain's slots.
    """
    rows, cols, labels = matrix.rows, matrix.cols, dmap.labels
    row_lab, col_lab = labels[rows], labels[cols]
    every = np.arange(matrix.n, dtype=np.int64)
    op = TwoStageOperator.from_block_matrix(matrix, gather=(
        plan.slots[row_lab, cols],
        plan.slots[col_lab, rows],
        plan.slots[labels, every],
        plan.ext_ids.size,
    ))
    return DomainSplit(
        matrix, dmap, plan, op,
        m_up=np.bincount(row_lab, minlength=dmap.n_domains),
        m_low=np.bincount(col_lab, minlength=dmap.n_domains),
    )


def price_spmv(split: DomainSplit, devices: list) -> tuple[list, list]:
    """Two ``(n_domains,)`` lists: each domain's share of the SpMV as
    HSBCSR-style launches priced on its device, and the scalar seconds of
    the part it runs before its ghosts arrive — the off-diagonal entries
    of its interior rows (:meth:`DomainSplit.interior`), its diagonal."""
    labels, nd = split.dmap.labels, len(devices)
    interior = split.interior()
    # the output row of every entry of both halves
    ends = np.concatenate([split.matrix.rows, split.matrix.cols])
    counts = np.stack([
        split.m_up + split.m_low, np.bincount(labels, minlength=nd),
        np.bincount(labels[ends][interior[ends]], minlength=nd),
        np.bincount(labels[interior], minlength=nd),
    ], axis=1)
    spmv, hidden = [], []
    for device, (m, n, m_in, n_in) in zip(devices, counts.tolist()):  # lint: sync-ok[alloc-size] -- per-domain entry counts size the priced launches, once per pattern
        spmv.append(_price(m, n, device))
        off_in = _price(m_in, n_in, device)[:-1]  # its diagonal is spmv's
        hidden.append(sum(r.seconds for r in off_in) + spmv[-1][-1].seconds)
    return spmv, hidden


def _price(m: int, n: int, device) -> tuple:
    """``m`` off-diagonal entries (both halves) into ``n`` owned rows,
    then those rows' diagonal blocks, priced on ``device``."""
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
