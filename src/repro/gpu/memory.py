"""Global/shared/texture memory access models.

Global memory on Kepler-class GPUs is serviced in 128-byte transactions; a
warp's loads are *coalesced* when its 32 lanes fall into few transactions.
This module computes the number of transactions a given access pattern
issues, which is what the :mod:`repro.gpu.device` timing model charges.

Shared memory has 32 four-byte banks; lanes hitting the same bank at
different words serialize. :func:`shared_bank_conflicts` counts the extra
serialized accesses — the quantity the paper's HSBCSR reduction scheme
(Fig. 8) is designed to keep at zero.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array, check_positive

#: Kepler global-memory transaction size in bytes.
TRANSACTION_BYTES = 128

#: Number of shared-memory banks (4-byte words) on Kepler.
SHARED_BANKS = 32


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


def strided_transactions(
    n_elements: int,
    elem_bytes: int,
    stride_elems: int,
    transaction_bytes: int = TRANSACTION_BYTES,
) -> float:
    """Transactions for a constant-stride access pattern.

    Every argument and the result is a scalar. With stride 1 this reduces to :func:`coalesced_transactions`; with a
    stride of ``transaction_bytes / elem_bytes`` or more, every element
    costs a full transaction.
    """
    check_positive("stride_elems", stride_elems)
    per_txn = max(1, transaction_bytes // (elem_bytes * stride_elems))
    return math.ceil(n_elements / per_txn)


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


def shared_bank_conflicts(
    word_indices: np.ndarray,
    warp_size: int = WARP_SIZE,
    banks: int = SHARED_BANKS,
) -> int:
    """Extra serialized shared-memory cycles for a warp-structured access.

    ``word_indices`` are 1-D per-thread 4-byte-word offsets into shared
    memory. Lanes in the same warp mapping to the same bank *at different
    words* serialize; broadcast of the identical word is conflict-free.
    Returns the scalar total of extra cycles across all warps (0 ==
    conflict-free, the design target of the paper's Fig. 8 scheme).
    """
    idx = check_array("word_indices", word_indices, ndim=1)
    if idx.size == 0:
        return 0
    idx = idx.astype(np.int64)
    pad = (-idx.size) % warp_size
    if pad:
        idx = np.concatenate([idx, np.repeat(idx[-1], pad)])
    lanes = idx.reshape(-1, warp_size)
    n_warps = lanes.shape[0]
    # Key each (warp, bank, word) triple; distinct words per (warp, bank)
    # determine that bank's cycle count.
    bank = lanes % banks
    key = (np.arange(n_warps)[:, None] * banks + bank) * (idx.max() + 1) + lanes
    order = np.argsort(key, axis=None)
    flat = key.ravel()[order]
    new_word = np.ones(flat.size, dtype=bool)
    new_word[1:] = flat[1:] != flat[:-1]
    # count distinct words per (warp, bank) group
    wb = (np.arange(n_warps)[:, None] * banks + bank).ravel()[order]
    counts = np.bincount(wb[new_word], minlength=n_warps * banks)
    cycles = counts.reshape(n_warps, banks).max(axis=1)
    # conflict counters are host-side model outputs by contract
    return int((cycles - 1).clip(min=0).sum())  # lint: sync-ok[cost-model] -- conflict counters are host-side model outputs
