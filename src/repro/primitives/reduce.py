"""Segmented reduction.

The work-horse of the paper's Fig.-4 assembly scheme: after sorting
sub-matrix contributions by block index, entries of each segment are
summed. The boundary-flag + scan construction used there is provided by
:func:`segment_boundaries`.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import segment_sum
from repro.util.validation import check_array


def segment_boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run in a sorted key array.

    This is the ``di[i] = (SD[i] - SD[i-1] == 0) ? 1 : 0`` flag + scan
    construction of the paper's Fig. 4, returning the segment start indices
    (the scan of the negated flags compacted).

    ``sorted_keys`` is 1-D; returns a 1-D int64 array ``starts`` with
    ``starts[0] == 0`` and one entry per distinct run; append
    ``len(sorted_keys)`` to close the last segment.
    """
    keys = check_array("sorted_keys", sorted_keys, ndim=1)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    new_seg = np.ones(keys.size, dtype=bool)
    new_seg[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new_seg).astype(np.int64)


def charge_segmented_reduce(
    device: VirtualDevice,
    n: int,
    row_items: int,
    itemsize: int,
    n_segments: int,
) -> None:
    """Record one :func:`segmented_reduce` launch on ``device``.

    The launch depends on the segment layout alone — an ``(n,
    row_items)`` array of ``itemsize``-byte entries in ``n_segments``
    segments, all scalar counts — so the Fig.-4 assembler's symbolic
    phase charges it without holding the payloads.
    """
    row_bytes = itemsize * row_items
    device.launch(
        "segmented_reduce",
        KernelCounters(
            flops=float(n * row_items),
            global_bytes_read=n * row_bytes + n_segments * 8,
            global_bytes_written=n_segments * row_bytes,
            global_txn_read=coalesced_transactions(n, row_bytes),
            global_txn_written=coalesced_transactions(n_segments, row_bytes),
            shared_accesses=2.0 * n,
            threads=n,
            warps=max(1, n // WARP_SIZE),
        ),
    )


def segmented_reduce(
    values: np.ndarray,
    starts: np.ndarray,
    device: VirtualDevice | None = None,
) -> np.ndarray:
    """Sum each segment of ``values``; segments start at ``starts``.

    ``values`` may be 1-D (scalar entries) or 2-D (one row per entry, e.g.
    flattened 6x6 sub-matrices in the Fig.-4 assembler); rows within a
    segment are summed element-wise. Raises ``ValueError`` unless
    ``starts`` begins at 0, increases strictly and stays below
    ``len(values)``.
    """
    values = np.asarray(values)
    if values.ndim not in (1, 2):
        raise ValueError(f"values must be 1-D or 2-D, got ndim={values.ndim}")
    starts = check_array("starts", starts, ndim=1, dtype=np.int64)
    if starts.size == 0:
        return values[:0]
    if starts[0] != 0:  # lint: sync-ok[validation-gate] -- segment layout check, raises before launch
        raise ValueError("starts[0] must be 0")
    if np.any(np.diff(starts) <= 0) or starts[-1] >= values.shape[0]:  # lint: sync-ok[validation-gate] -- segment layout check, raises before launch
        raise ValueError("starts must be strictly increasing and in range")
    if device is not None and values.size:
        charge_segmented_reduce(
            device, values.shape[0],
            values.shape[1] if values.ndim == 2 else 1,
            values.itemsize, starts.size,
        )
    return segment_sum(values, starts, axis=0)
