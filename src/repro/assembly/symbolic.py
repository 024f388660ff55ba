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

Between the open–close sweeps of one loop-2 attempt not even the
payloads are free: every contact block is ``w a b^T + ws a_s b_s^T``
over the step's spring vectors, and only the weights follow the contact
states. A plan's :class:`StreamLayout` names each sorted row's contact
and vectors, once per plan; :meth:`AssemblyPlan.bind` adds a step's
geometry, and :meth:`BoundAssembly.assemble` forms each row's block from
the sweep's weights, in segment-aligned chunks, straight into the same
segment sums — same blocks, same order, same bits, without the
``(m, 6, 6)`` contribution arrays. An OPEN contact's blocks are exact
zeros, so only the segments where two nonzero rows meet are formed, and
only their rows' vectors gathered; the ledger still prices every row.

An engine keeps the plan of the last pattern it saw: a sweep whose
pattern :meth:`AssemblyPlan.matches` it runs the numeric phase only and
records the plan's captured launch records again, so the modelled
device seconds do not depend on whether the plan was reused —
the ledger stays an honest model of the paper's per-sweep assembly
pipeline. A sweep with a new pattern builds a new plan and runs the
same numeric phase.

Invalidation is one exact gate: :meth:`AssemblyPlan.matches` compares
the incoming index pattern before any reuse, so a stale plan can never
produce a wrong matrix — only a rebuild — and a plan survives every
step whose block pairs did not move, whatever the contact keys did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.assembly.contact_springs import SpringGeometry, spring_blocks
from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import KernelRecord, VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.reduce import (
    charge_segmented_reduce,
    segment_boundaries,
    segmented_reduce,
)
from repro.util.validation import check_array

#: Bytes of one 6x6 float64 sub-matrix payload.
_BLOCK_BYTES = BS * BS * 8

#: Rows per chunk of a bound numeric phase: two ~0.6 MB work blocks
#: instead of two stream-sized ones (11 MB each at 12 k contacts).
_CHUNK_ROWS = 2048


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
        The priced kernel records one assembly of this pattern costs,
        as captured by the engine that built the plan
        (:meth:`~repro.gpu.kernel.VirtualDevice.launches_since`); the
        engine records them again on each reuse.
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
    launches: tuple[KernelRecord, ...] = ()

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
        b = np.where(
            self.swap[:, None, None],
            off_blocks.transpose(0, 2, 1),
            off_blocks,
        )
        return self._matrix(
            segmented_reduce(
                diag_blocks[self.diag_perm].reshape(q, BS * BS),
                self.diag_starts,
            ),
            segmented_reduce(b[self.perm].reshape(m, BS * BS), self.starts),
        )

    def _matrix(self, diag_sums: np.ndarray, pair_sums: np.ndarray) -> BlockMatrix:
        """Write the ``(d, 36)`` / ``(s, 36)`` segment sums out as ``K``
        (fresh arrays; ``diag_out`` holds each segment's unique row)."""
        diag = np.zeros((self.n, BS, BS))
        diag[self.diag_out] = diag_sums.reshape(self.diag_out.size, BS, BS)
        return BlockMatrix(
            self.n,
            diag,
            self.out_rows,
            self.out_cols,
            pair_sums.reshape(self.ukey.size, BS, BS),
        )

    @cached_property
    def layout(self) -> "StreamLayout":
        """The per-plan half of every binding, made on the first :meth:`bind`."""
        return StreamLayout(self)

    def bind(self, geometry: SpringGeometry) -> "BoundAssembly":
        """Bind the plan to one contact table's spring geometry.

        For the engines' stream layout — ``diag_idx`` is the
        contact-independent (static) rows, then ``block_i``, then
        ``block_j``; the pair pattern is ``(block_i, block_j)``. The
        plan's :attr:`layout` says which contact's vectors each sorted
        row reads; the binding adds the ``geometry`` they are read from.
        """
        q, m, contacts = self.diag_idx.size, self.off_rows.size, geometry.d0.size
        if q < 2 * m or contacts != m:
            raise ValueError(f"plan of {q} diagonal and {m} pair rows does "
                             f"not fit a table of {contacts} contacts")
        return BoundAssembly(self, geometry)


class StreamLayout:
    """The ``r = q + m`` rows of a plan's sorted stream — the diagonal
    stream's ``(e, e)`` / ``(g, g)`` rows through ``diag_perm``, then the
    pair stream's ``(e, g)``, ``(g, e)`` where ``swap``, through ``perm``
    — as index arrays only, so one layout serves every geometry.

    ``contact`` is each row's contact, ``from_g`` the masks of the rows
    whose ``a`` / ``b`` vectors are block ``j``'s, ``static_of`` the
    static block a static row takes (``-1`` on contact rows). Segments
    (``seg_start``, ``seg_len``; ``seg_of`` per row) are cut into aligned ``chunks`` of about
    ``_CHUNK_ROWS`` rows; ``static`` lists the static rows and
    ``contact_rows`` each contact's ``i-i``, ``j-j`` and pair rows.
    """

    def __init__(self, plan: AssemblyPlan) -> None:
        q, m, src = plan.diag_idx.shape[0], plan.off_rows.shape[0], plan.diag_perm
        n_static, rows, r = q - 2 * m, np.arange(m), q + m
        # static rows: any contact will do, their blocks are overwritten
        zeros = np.zeros_like(src[:n_static])
        self.contact = np.concatenate([np.concatenate([zeros, rows, rows])[src], plan.perm])
        j_diag, swap = src >= n_static + m, plan.swap[plan.perm]
        self.from_g = (np.concatenate([j_diag, swap]), np.concatenate([j_diag, ~swap]))
        self.static_of = np.concatenate([np.where(src < n_static, src, -1), np.full(m, -1)])
        self.seg_start = starts = np.concatenate([plan.diag_starts, q + plan.starts])
        bounds = np.concatenate([starts, np.full(1, r)])
        self.seg_len = np.diff(bounds)
        self.seg_of = np.repeat(np.arange(starts.size, dtype=np.int32), self.seg_len)
        # segment-aligned runs of about _CHUNK_ROWS rows: (row0, row1,
        # seg0, seg1, local starts) each
        first = np.searchsorted(starts, np.arange(-(-r // _CHUNK_ROWS)) * _CHUNK_ROWS)
        seg = np.concatenate([first, np.full(1, starts.shape[0])])
        edges = np.stack([bounds[seg], seg], axis=1).tolist()  # lint: sync-ok[chunk-layout] -- the host sizes the chunk launches, once per plan
        self.chunks = [(r0, r1, s0, s1, starts[s0:s1] - r0)
                       for (r0, s0), (r1, s1) in zip(edges, edges[1:]) if r1 > r0]
        self.chunk_rows = max((c[1] - c[0] for c in self.chunks), default=0)
        self.static = np.flatnonzero(self.static_of >= 0)
        at = np.empty(r, dtype=np.int64)
        at[np.concatenate([src, q + plan.perm])] = np.arange(r)
        self.contact_rows = np.stack([at[q - 2 * m : q - m], at[q - m : q], at[q:]], 1)


class BoundAssembly:
    """An :class:`AssemblyPlan` bound to one table's spring geometry
    (:meth:`AssemblyPlan.bind`); valid for exactly that ``plan`` and
    that ``geometry`` object.

    A sweep gathers the spring vectors of the rows it forms from
    ``geometry``; the first to form a whole chunk lays out ``stream``,
    every row's ``(r, 6)`` ``a, b, a_s, b_s``, which later ones slice.
    """

    def __init__(self, plan: AssemblyPlan, geometry: SpringGeometry) -> None:
        self.plan, self.geometry, self.layout = plan, geometry, plan.layout
        self.stream: list | None = None
        self.work = np.empty((2, self.layout.chunk_rows, BS, BS))
        g = self.geometry  # zero weights form +0.0 from finite vectors only
        self.finite = all(np.isfinite(v).all() for v in (g.e, g.g, g.e_s, g.g_s))

    def _vectors(self, rows, c: np.ndarray) -> list:
        """``a, b, a_s, b_s`` of stream ``rows`` (slice or indices), contacts ``c``."""
        if self.stream is None and isinstance(rows, slice):
            self.stream = self._gather(slice(None), self.layout.contact)
        if self.stream is not None:
            return [v[rows] for v in self.stream]
        return self._gather(rows, c)

    def _gather(self, rows, c: np.ndarray) -> list:
        geo, vectors = self.geometry, []
        for i, j in ((geo.e, geo.g), (geo.e_s, geo.g_s)):
            for from_g in self.layout.from_g:
                v, pick = i[c], from_g[rows]
                v[pick] = j[c[pick]]
                vectors.append(v)
        return vectors

    def _form(self, rows, static_blocks: np.ndarray, w: np.ndarray, ws) -> np.ndarray:
        """The ``(k, 36)`` blocks of stream ``rows`` (slice or indices), in ``work``."""
        c = self.layout.contact[rows]
        a, b, a_s, b_s = self._vectors(rows, c)
        blocks = spring_blocks(
            a, b, w[c], a_s, b_s, None if ws is None else ws[c],
            out=self.work[0, : c.size], scratch=self.work[1, : c.size],
        )
        s = self.layout.static_of[rows]
        blocks[s >= 0] = static_blocks[s[s >= 0]]
        return blocks.reshape(c.size, BS * BS)

    def assemble(
        self,
        static_blocks: np.ndarray,
        w: np.ndarray,
        ws: np.ndarray | None,
    ) -> BlockMatrix:
        """The numeric phase of one sweep.

        ``static_blocks`` is the ``(q - 2 m, 6, 6)`` static diagonal
        rows; ``w`` / ``ws`` are the ``(m,)`` spring weights of
        :func:`~repro.assembly.contact_springs.spring_loads`. Equals
        ``plan.assemble`` on the materialised stream bit for bit.

        A row whose weights are both zero holds an exact ``+0.0`` block
        (finite vectors), and a segment sum's adds turn ``-0.0`` into
        ``+0.0`` and keep every other value. So a segment with no
        nonzero row (static rows count as nonzero) is ``+0.0``, one with
        a single nonzero row is that row's block (``+ 0.0`` when the
        segment is longer), and only segments with two or more are
        formed and summed, chunk by chunk, their zero rows kept in place
        so the summation order is the full stream's. Non-finite spring
        vectors, or no zero weight, form every row.
        """
        m = self.geometry.d0.shape[0]
        static_blocks = check_array(
            "static_blocks", static_blocks, dtype=np.float64,
            shape=(self.plan.diag_idx.shape[0] - 2 * m, BS, BS),
        )
        w = check_array("w", w, dtype=np.float64, shape=(m,))
        if ws is not None:
            ws = check_array("ws", ws, dtype=np.float64, shape=(m,))
        if m == 0:  # no weight for the static rows to read: nothing to form
            return self.plan.assemble(static_blocks, np.zeros((0, BS, BS)))
        lay, d = self.layout, self.plan.diag_out.size
        sums = np.zeros((lay.seg_start.size, BS * BS))
        dense = np.ones(sums.shape[0], dtype=bool)
        live = (w != 0.0) if ws is None else (w != 0.0) | (ws != 0.0)
        if self.finite and not live.all():  # lint: sync-ok[stage-skip] -- host skips the bookkeeping when no row is zero
            rows = np.concatenate([lay.static, lay.contact_rows[live].ravel()])
            seg = lay.seg_of[rows]
            count = np.bincount(seg, minlength=dense.size)
            one = count[seg] == 1
            rows, seg = rows[one], seg[one]
            step = self.work.shape[1]
            for k in range(0, rows.size, step):  # lint: host-ok[DDA001] -- one launch per work block
                sums[seg[k : k + step]] = self._form(
                    rows[k : k + step], static_blocks, w, ws
                )
            sums[seg[lay.seg_len[seg] > 1]] += 0.0
            dense = count >= 2
        for r0, r1, s0, s1, starts in lay.chunks:
            seg = s0 + np.flatnonzero(dense[s0:s1])
            rows = slice(r0, r1)  # every segment: the rows as they lie
            if seg.size < s1 - s0:  # lint: sync-ok[stage-skip] -- host sizes the chunk's launch
                if not seg.size:  # lint: sync-ok[stage-skip] -- nothing in this chunk to form
                    continue
                lens = lay.seg_len[seg]
                ends = np.cumsum(lens)
                starts = ends - lens
                rows = np.repeat(lay.seg_start[seg] - starts, lens)
                rows += np.arange(ends[-1])
            sums[seg] = segmented_reduce(
                self._form(rows, static_blocks, w, ws), starts
            )
        return self.plan._matrix(sums[:d], sums[d:])
