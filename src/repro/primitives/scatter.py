"""The blessed scatter / segmented-reduction seam.

NumPy's ufunc methods (``np.add.at``, ``np.add.reduceat``,
``np.minimum.reduceat``...) are exactly where a device port gets
subtle: on a real device an unordered atomic scatter is *not*
bit-identical to NumPy's left-to-right semantics for non-associative
float addition. The device path therefore calls them only here — one
reviewed module a backend shim can swap wholesale. This module is left
out of the device path's reviewed NumPy surface
(``tests/lint/test_device_numpy_surface.py``), so a raw ufunc method
anywhere else on the device path is a new name that fails that test.

Every wrapper is a **pure pass-through**: no virtual-device launches,
no counter updates, no copies — the call sites' modelled costs and
bit-exact results (the assembler's segment sums, the domain
bit-identity pins) are unchanged by routing through this seam.

The two *compiled* operators at the bottom (:class:`BlockRowProduct`,
:class:`GatherSegmentSum`) are the stage-1 / stage-2 halves of the
HSBCSR two-stage SpMV: each call is one SciPy BSR / CSR matvec kernel
(the ``_sparsetools`` loops behind ``@``, no other module names them)
into a zeroed output. Both sum strictly left to right — each 6-term
dot, then each segment, from ``0.0`` — as a pure-Python loop does.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import bsr_matvec, csr_matvecs

__all__ = [
    "scatter_add",
    "segment_sum",
    "segment_min",
    "segment_max",
    "BlockRowProduct",
    "GatherSegmentSum",
]


def scatter_add(target: np.ndarray, index, values) -> None:
    """Unbuffered in-place scatter-add: ``target[index] += values``
    with repeated-index accumulation.

    ``target``: the destination array, any shape; ``index``: integer
    index array (or tuple of them, e.g. ``(rows, cols)``) selecting
    destinations; ``values``: scalar or array broadcastable to the
    selection. Equivalent to ``np.add.at`` (a CuPy backend maps it to
    ``cupyx.scatter_add``); NumPy's in-order accumulation is preserved
    bit-exactly.
    """
    np.add.at(target, index, values)


def segment_sum(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Sum of each segment of ``values`` along ``axis``.

    ``values``: the concatenated per-segment data, shape ``(n, ...)``;
    ``starts``: 1-D segment start offsets into the reduced axis (the
    CSR-style ``indptr[:-1]`` convention of ``np.add.reduceat``).
    Returns one row per segment, shape ``(len(starts), ...)``. The
    order is NumPy's and deterministic, but not left to right: each
    segment is its first entry plus the pairwise sum of the rest
    (their plain running sum when there are fewer than eight).
    """
    return np.add.reduceat(values, starts, axis=axis)


def segment_min(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Minimum of each segment of ``values`` along ``axis``.

    Same shape conventions and ``starts`` as :func:`segment_sum`.
    """
    return np.minimum.reduceat(values, starts, axis=axis)


def segment_max(
    values: np.ndarray, starts: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Maximum of each segment of ``values`` along ``axis``.

    Same shape conventions and ``starts`` as :func:`segment_sum`.
    """
    return np.maximum.reduceat(values, starts, axis=axis)


def segment_indptr(targets: np.ndarray, n: int) -> np.ndarray:
    """``(n+1,)`` CSR-style bounds of the entries adding into each of ``n`` rows."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=indptr[1:])
    return indptr


class BlockRowProduct:
    """Compiled stage 1: one dense block per output block row.

    ``blocks``: ``(m, b, b)`` float64 payload; ``index``: ``(m,)`` int64
    block position in ``x`` that block ``k`` multiplies (the ``rc``
    gather); ``n_in``: block length of ``x``. Calling it with ``x`` of
    shape ``(n_in*b,)`` returns ``(m, b)`` with row ``k`` equal to
    ``blocks[k] @ x[index[k]]``, each dot summed left to right.
    """

    def __init__(self, blocks: np.ndarray, index: np.ndarray, n_in: int) -> None:
        self.blocks = np.ascontiguousarray(blocks, dtype=np.float64)
        self.index = np.ascontiguousarray(index, dtype=np.int64)
        self.n_in, (m, b) = n_in, self.blocks.shape[:2]
        self._shape, self._x_shape = (m, b), (n_in * b,)
        self._row_of = np.arange(m + 1, dtype=np.int64)  # block k: row k

    def rows(self, start: int, stop: int | None) -> "BlockRowProduct":
        """Output rows ``[start, stop)``: views of this payload and gather."""
        rows = slice(start, stop)
        return BlockRowProduct(self.blocks[rows], self.index[rows], self.n_in)

    def with_blocks(self, blocks: np.ndarray) -> "BlockRowProduct":
        """Same gather structure, new ``(m, b, b)`` payload."""
        return BlockRowProduct(blocks, self.index, self.n_in)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._x_shape:
            raise ValueError(f"x: expected shape {self._x_shape}, got {x.shape}")
        (m, b), y = self._shape, np.zeros(self._shape)
        bsr_matvec(m, self.n_in, b, b, self._row_of, self.index, self.blocks, x, y)
        return y


class GatherSegmentSum:
    """Compiled stage 2: gather rows of ``v`` and sum them per segment.

    ``indptr``: ``(n+1,)`` int64 CSR-style segment bounds (empty
    segments allowed — they yield ``0.0``); ``gather``: ``(m,)`` int64
    row of ``v``, below ``m``, read at each segment position
    (``arange(m)`` when ``v`` is already in segment order). Calling it
    with ``v`` of shape ``(rows >= m, b)`` returns ``(n, b)``; segment
    ``i`` is ``v[gather[indptr[i]]] + v[gather[indptr[i]+1]] + ...``
    summed left to right. Structure only: one instance serves every
    value-only rebuild of the same sparsity pattern.
    """

    def __init__(self, indptr: np.ndarray, gather: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.gather = np.ascontiguousarray(gather, dtype=np.int64)
        self._ones = np.ones(self.gather.size)

    @classmethod
    def scatter(cls, targets: np.ndarray, n: int) -> "GatherSegmentSum":
        """``np.add.at(np.zeros((n, b)), targets, v)`` bit for bit, for
        ``(m,)`` int64 ``targets`` below ``n``: the rows of ``v`` stably
        sorted by target, each segment summed left to right."""
        return cls(segment_indptr(targets, n), np.argsort(targets, kind="stable"))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        m, n = self.gather.size, self.indptr.size - 1
        if v.ndim != 2 or len(v) < m:
            raise ValueError(f"v: expected at least {m} rows, got {v.shape}")
        y = np.zeros((n, v.shape[1]))
        csr_matvecs(n, m, v.shape[1], self.indptr, self.gather, self._ones, v, y)
        return y
