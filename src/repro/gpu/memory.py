"""Global-memory access models.

Global memory on Kepler-class GPUs is serviced in 128-byte transactions; a
warp's loads are *coalesced* when its 32 lanes fall into few transactions.
This module computes the number of transactions a given access pattern
issues, which is what the :mod:`repro.gpu.device` timing model charges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array, check_positive

#: Kepler global-memory transaction size in bytes.
TRANSACTION_BYTES = 128


def coalesced_transactions(
    n_elements: int | float,
    elem_bytes: int,
    transaction_bytes: int = TRANSACTION_BYTES,
) -> float:
    """Transactions for a contiguous, aligned access of ``n_elements``.

    Every argument and the result is a scalar. This is the best case:
    ``ceil(bytes / transaction)``.
    """
    check_positive("elem_bytes", elem_bytes)
    if n_elements < 0:
        raise ValueError(f"n_elements must be >= 0, got {n_elements}")
    return math.ceil(n_elements * elem_bytes / transaction_bytes)


def streamed(
    reads: int, writes: int, flops: float, threads: int, **extra: float
) -> KernelCounters:
    """A kernel that reads ``reads`` and writes ``writes`` 8-byte words,
    fully coalesced, on ``threads`` threads; ``extra`` counters as given."""
    return KernelCounters(
        flops=flops,
        global_bytes_read=8.0 * reads,
        global_bytes_written=8.0 * writes,
        global_txn_read=coalesced_transactions(reads, 8),
        global_txn_written=coalesced_transactions(writes, 8),
        threads=threads,
        warps=max(1, threads // WARP_SIZE),
        **extra,
    )


def gather_transactions(
    indices: np.ndarray,
    elem_bytes: int,
    warp_size: int = WARP_SIZE,
    transaction_bytes: int = TRANSACTION_BYTES,
) -> int:
    """Transactions issued by a warp-structured gather ``x[indices]``.

    ``indices`` is a 1-D element-index array; returns a scalar
    transaction count. Threads are mapped to warps in launch order; each warp issues one
    transaction per distinct 128-byte segment its lanes touch, which is how
    the hardware coalescer behaves for simple access patterns.
    """
    indices = check_array("indices", indices, ndim=1)
    check_positive("elem_bytes", elem_bytes)
    if indices.size == 0:
        return 0
    segs = (indices.astype(np.int64) * elem_bytes) // transaction_bytes
    pad = (-segs.size) % warp_size
    if pad:
        segs = np.concatenate([segs, np.repeat(segs[-1], pad)])
    per_warp = segs.reshape(-1, warp_size)
    s = np.sort(per_warp, axis=1)
    distinct = 1 + np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)
    # transaction counters are host-side model outputs by contract
    return int(distinct.sum())  # lint: sync-ok[cost-model] -- transaction counters are host-side model outputs
