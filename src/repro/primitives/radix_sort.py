"""LSD radix sort (keys, or key/value pairs).

Models Merrill & Grimshaw's GPU radix sort: for each ``digit_bits``-wide
digit, a histogram kernel, a digit-bin scan, and a scatter kernel. The
scatter's write coalescing is computed from the *actual* destination
positions of the pass, so sorting nearly-sorted data (the common case in
contact transfer, where block order changes slowly) is modelled cheaper
than sorting random data — the same behaviour the hardware shows.

The digit passes themselves are performed as genuine stable counting sorts,
so the returned permutation is exactly what the GPU algorithm produces.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array

#: Digit width used by the launch model (Kepler-era sorts use 4–8 bits).
DEFAULT_DIGIT_BITS = 8


def _key_bits(keys: np.ndarray, key_bits: int | None) -> int:
    if key_bits is not None:
        if key_bits <= 0:
            raise ValueError(f"key_bits must be positive, got {key_bits}")
        return key_bits
    if keys.size == 0:
        return 1
    # pass count is launch configuration, decided on the host
    m = int(keys.max())  # lint: sync-ok[launch-config] -- pass count is host launch configuration
    return max(1, m.bit_length())


def _pass_counters(
    keys: np.ndarray,
    dest: np.ndarray,
    value_bytes: int,
    digit_bits: int,
) -> list[KernelCounters]:
    """Counters for one radix pass: histogram, bin scan, scatter."""
    n = keys.size
    kb = keys.itemsize
    bins = 1 << digit_bits
    hist = KernelCounters(
        flops=1.0 * n,
        global_bytes_read=n * kb,
        global_txn_read=coalesced_transactions(n, kb),
        shared_accesses=2.0 * n,  # per-block bin counters
        threads=n,
        warps=max(1, n // WARP_SIZE),
    )
    scan = KernelCounters(
        flops=2.0 * bins,
        global_bytes_read=bins * 4,
        global_bytes_written=bins * 4,
        global_txn_read=coalesced_transactions(bins, 4),
        global_txn_written=coalesced_transactions(bins, 4),
        threads=bins,
        warps=max(1, bins // WARP_SIZE),
    )
    scatter = KernelCounters(
        flops=2.0 * n,
        global_bytes_read=n * (kb + value_bytes),
        global_bytes_written=n * (kb + value_bytes),
        global_txn_read=coalesced_transactions(n, kb + value_bytes),
        global_txn_written=float(
            gather_transactions(dest, kb)
            + (gather_transactions(dest, value_bytes) if value_bytes else 0)
        ),
        shared_accesses=2.0 * n,  # local ranking
        threads=n,
        warps=max(1, n // WARP_SIZE),
    )
    return [hist, scan, scatter]


def radix_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray | None = None,
    device: VirtualDevice | None = None,
    *,
    key_bits: int | None = None,
    digit_bits: int = DEFAULT_DIGIT_BITS,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable LSD radix sort; returns ``(sorted_keys, permutation)``.

    Parameters
    ----------
    keys:
        Non-negative integer keys (any integer dtype).
    values:
        Optional payload; only its item size matters for the cost model —
        apply the returned permutation to reorder any number of payloads.
    device:
        Optional virtual device to record the pass launch sequence on.
    key_bits:
        Significant key bits; inferred from ``keys.max()`` when omitted.
        Fewer bits means fewer passes (the paper sorts small block ids).
    digit_bits:
        Digit width per pass.

    Returns
    -------
    (ndarray, ndarray)
        The sorted keys and the permutation ``p`` with
        ``sorted_keys == keys[p]``.
    """
    keys = check_array("keys", keys, ndim=1)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(f"keys must be an integer array, got {keys.dtype}")
    # input validation happens on the host before any launch
    if keys.size and int(keys.min()) < 0:  # lint: sync-ok[validation-gate] -- host validates keys before any launch
        raise ValueError("keys must be non-negative")
    if digit_bits <= 0:
        raise ValueError(f"digit_bits must be positive, got {digit_bits}")
    value_bytes = 0 if values is None else np.asarray(values).itemsize

    perm = np.arange(keys.size, dtype=np.int64)
    cur = keys.copy()
    bits = _key_bits(keys, key_bits)
    mask = (1 << digit_bits) - 1
    for shift in range(0, bits, digit_bits):
        digits = (cur >> shift) & mask
        order = np.argsort(digits, kind="stable")
        if device is not None:
            # the pass's actual scatter destinations feed the coalescing
            # model
            dest = np.empty_like(order)
            dest[order] = np.arange(order.size)
            for i, c in enumerate(
                _pass_counters(cur, dest, value_bytes, digit_bits)
            ):
                device.launch(f"radix_pass{shift // digit_bits}[{i}]", c)
        cur = cur[order]
        perm = perm[order]
    return cur, perm
