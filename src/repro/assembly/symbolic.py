"""The Fig.-4 assembler: one symbolic phase, one numeric phase.

The paper's write-conflict-free assembly sorts the contribution keys,
finds segment boundaries with the flag + scan construction and
segment-reduces the 6x6 payloads. Everything but the last step depends
only on the contribution *index pattern* ``(diag_idx, off_rows,
off_cols)``, which is constant across the open–close sweeps of a step
(contact states change the block values, never the pattern) and usually
across consecutive steps too. The assembler is therefore split along
that line:

* :meth:`AssemblyPlan.build` is the **symbolic phase**: validate the
  indices, orient every pair into the upper triangle, stable-sort the
  diagonal indices and the pair keys (the radix sort's permutation),
  find the segment starts and the output coordinates. Given a virtual
  device it records the Fig.-4 kernel sequence — which is a function
  of the pattern alone — while it runs;
* :meth:`AssemblyPlan.assemble` is the **numeric phase**: validate the
  payloads, gather them through the permutation and sum each segment.
  Diagonal and off-diagonal blocks take the same path, so there is one
  summation order for ``K``: contributions in input order within each
  block (the sort is stable), summed as
  :func:`~repro.primitives.scatter.segment_sum` sums a segment — the
  first entry plus the pairwise sum of the rest. A pure-Python loop
  reproduces it bit for bit (``tests/assembly/test_symbolic.py``).

An engine keeps the plan of the last pattern it saw: a sweep whose
pattern :meth:`AssemblyPlan.matches` it runs the numeric phase only and
:meth:`AssemblyPlan.replay` re-records the captured launches, so the
modelled device seconds do not depend on whether the plan was reused —
the ledger stays an honest model of the paper's per-sweep assembly
pipeline. A sweep with a new pattern builds a new plan and runs the
same numeric phase. The scatter sanitizer sees the segment-write
targets on every call (:func:`~repro.lint.sanitize.scatter_check`), so
a planted ``scatter_duplicate_index`` fault is detected with or without
reuse.

Invalidation is belt and braces: the engine proactively drops its plan
when the contact transfer layer reports a topology change
(:func:`repro.contact.transfer.topology_changed`), and
:meth:`AssemblyPlan.matches` exactly compares the incoming index
pattern before any reuse, so a stale plan can never produce a wrong
matrix — only a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.lint.sanitize import scatter_check
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.reduce import (
    charge_segmented_reduce,
    segment_boundaries,
    segmented_reduce,
)
from repro.util.validation import check_array

#: Bytes of one 6x6 float64 sub-matrix payload.
_BLOCK_BYTES = BS * BS * 8


@dataclass
class AssemblyPlan:
    """The symbolic phase of one contribution pattern.

    Attributes
    ----------
    n:
        Number of block rows/columns.
    diag_idx:
        ``(q,)`` diagonal contribution pattern the plan was built for.
    off_rows, off_cols:
        ``(m,)`` off-diagonal contribution pattern (either orientation).
    diag_perm, diag_starts, diag_out:
        ``(q,)`` stable sort permutation of ``diag_idx``, ``(d,)``
        segment starts into the sorted stream and the ``(d,)`` block
        index each segment sums into.
    swap:
        ``(m,)`` bool — contributions needing the upper-triangle
        transpose.
    perm:
        ``(m,)`` stable sort permutation of the canonical pair keys.
    starts:
        ``(s,)`` segment start positions into the sorted stream.
    ukey:
        ``(s,)`` unique canonical pair keys (the segment identities).
    out_rows, out_cols:
        ``(s,)`` output block coordinates, sorted and unique.
    launches:
        The ``(name, counters)`` kernel-launch sequence one assembly of
        this pattern costs, as captured by the engine that built the
        plan; :meth:`replay` re-records it on each reuse.
    """

    n: int
    diag_idx: np.ndarray
    off_rows: np.ndarray
    off_cols: np.ndarray
    diag_perm: np.ndarray
    diag_starts: np.ndarray
    diag_out: np.ndarray
    swap: np.ndarray
    perm: np.ndarray
    starts: np.ndarray
    ukey: np.ndarray
    out_rows: np.ndarray
    out_cols: np.ndarray
    launches: tuple[tuple[str, KernelCounters], ...] = ()

    @classmethod
    def build(
        cls,
        n: int,
        diag_idx: np.ndarray,
        off_rows: np.ndarray,
        off_cols: np.ndarray,
        device: VirtualDevice | None = None,
    ) -> "AssemblyPlan":
        """Run the symbolic phase for one contribution pattern.

        ``diag_idx`` is ``(q,)`` block indices (duplicates allowed),
        ``off_rows`` / ``off_cols`` are ``(m,)`` block pairs in either
        orientation (duplicates allowed; ``off_rows[k] == off_cols[k]``
        is rejected). With a ``device`` the Fig.-4 kernels are recorded
        on it in pipeline order: the diagonal stream's radix-sort
        passes and segmented reduction, then the pair stream's
        orientation kernel, radix-sort passes, payload gather
        (sub-matrices move once, per the paper) and segmented reduction.
        """
        diag_idx = check_array("diag_idx", diag_idx, dtype=np.int64, ndim=1)
        q = diag_idx.shape[0]
        off_rows = check_array("off_rows", off_rows, dtype=np.int64, ndim=1)
        m = off_rows.shape[0]
        off_cols = check_array("off_cols", off_cols, dtype=np.int64, shape=(m,))
        if m and np.any(off_rows == off_cols):  # lint: sync-ok[validation-gate] -- rejects malformed contribution streams
            raise ValueError("off-diagonal contribution with row == col")
        # the sort model reads only the payload's item size: keys are
        # sorted, the float64 sub-matrices follow in the final gather
        payload = np.empty(0)
        z = np.zeros(0, dtype=np.int64)

        diag_perm = diag_starts = diag_out = z
        if q:
            skeys, diag_perm = radix_sort_pairs(
                diag_idx, payload, device,
                key_bits=max(1, int(n - 1).bit_length()),
            )
            diag_starts = segment_boundaries(skeys)
            diag_out = skeys[diag_starts]
            if device is not None:
                charge_segmented_reduce(device, q, BS * BS, 8, diag_starts.size)

        swap = off_rows > off_cols
        perm = starts = ukey = z
        if m:
            r = np.where(swap, off_cols, off_rows)
            c = np.where(swap, off_rows, off_cols)
            if device is not None:
                # the canonicalisation kernel: one transpose decision per entry
                device.launch(
                    "canonical_orient",
                    KernelCounters(
                        flops=2.0 * m,
                        global_bytes_read=m * (16 + _BLOCK_BYTES),
                        global_bytes_written=m * (16 + _BLOCK_BYTES),
                        global_txn_read=coalesced_transactions(m, 16 + _BLOCK_BYTES),
                        global_txn_written=coalesced_transactions(m, 16 + _BLOCK_BYTES),
                        threads=m,
                        warps=max(1, m // WARP_SIZE),
                        branch_regions=max(1, m // WARP_SIZE),
                        divergent_branch_regions=max(1, m // WARP_SIZE) * 0.5,
                    ),
                )
            skeys, perm = radix_sort_pairs(
                r * n + c, payload, device,
                key_bits=max(1, int(n * n - 1).bit_length()),
            )
            starts = segment_boundaries(skeys)
            ukey = skeys[starts]
            if device is not None:
                # the final payload gather (sub-matrices move once, per the paper)
                device.launch(
                    "gather_submatrices",
                    KernelCounters(
                        flops=0.0,
                        global_bytes_read=m * _BLOCK_BYTES,
                        global_bytes_written=m * _BLOCK_BYTES,
                        global_txn_read=float(gather_transactions(perm, _BLOCK_BYTES)),
                        global_txn_written=coalesced_transactions(m, _BLOCK_BYTES),
                        threads=m * BS,
                        warps=max(1, m * BS // WARP_SIZE),
                    ),
                )
                charge_segmented_reduce(device, m, BS * BS, 8, starts.size)
        return cls(
            n=n,
            diag_idx=diag_idx.copy(),
            off_rows=off_rows.copy(),
            off_cols=off_cols.copy(),
            diag_perm=diag_perm,
            diag_starts=diag_starts,
            diag_out=diag_out,
            swap=swap,
            perm=perm,
            starts=starts,
            ukey=ukey,
            out_rows=(ukey // n).astype(np.int64),
            out_cols=(ukey % n).astype(np.int64),
        )

    # ------------------------------------------------------------------
    def matches(
        self,
        diag_idx: np.ndarray,
        off_rows: np.ndarray,
        off_cols: np.ndarray,
    ) -> bool:
        """Exact pattern equality gate (``(q,)`` + ``(m,)`` compares).

        Cheap — three integer array comparisons — and *total*: reuse is
        only ever allowed on a bit-for-bit identical contribution
        pattern, so correctness never depends on the proactive
        transfer-layer invalidation.
        """
        return bool(
            np.array_equal(diag_idx, self.diag_idx)
            and np.array_equal(off_rows, self.off_rows)
            and np.array_equal(off_cols, self.off_cols)
        )

    def assemble(
        self,
        diag_blocks: np.ndarray,
        off_blocks: np.ndarray,
    ) -> BlockMatrix:
        """Run the numeric phase on one set of payloads.

        ``diag_blocks`` is ``(q, 6, 6)``, ``off_blocks`` is
        ``(m, 6, 6)`` in the orientation of the plan's input pattern
        (``K_ji`` inputs are transposed into ``K_ij``). Every output
        block sums its contributions in input order (see the module
        docstring for the exact association).
        """
        q = self.diag_idx.shape[0]
        m = self.off_rows.shape[0]
        diag_blocks = check_array("diag_blocks", diag_blocks, dtype=np.float64,
                                  shape=(q, BS, BS))
        off_blocks = check_array("off_blocks", off_blocks, dtype=np.float64,
                                 shape=(m, BS, BS))
        diag = np.zeros((self.n, BS, BS))
        sums = segmented_reduce(
            diag_blocks[self.diag_perm].reshape(q, BS * BS), self.diag_starts
        )
        scatter_check("assemble.diag_segment_write", self.diag_out)
        diag[self.diag_out] = sums.reshape(self.diag_out.size, BS, BS)
        b = np.where(
            self.swap[:, None, None],
            off_blocks.transpose(0, 2, 1),
            off_blocks,
        )
        summed = segmented_reduce(
            b[self.perm].reshape(m, BS * BS), self.starts
        )
        scatter_check("assemble.offdiag_segment_write", self.ukey)
        return BlockMatrix(
            self.n,
            diag,
            self.out_rows,
            self.out_cols,
            summed.reshape(self.ukey.size, BS, BS),
        )

    def replay(self, device: VirtualDevice) -> None:
        """Re-record the captured launch ledger (scalar count) on
        ``device`` so modelled seconds match a from-scratch assembly."""
        device.replay(self.launches)
