"""Prefix-sum (scan) primitives.

Models the three-kernel chained scan of Merrill & Grimshaw (block-local
scan, scan of block sums, uniform add), with the block-local reduction
done through warp shuffles as the paper adopts ("the reduction algorithms
in the scan and radix sort methods were replaced by a shuffle instruction").
Shuffle-based reductions exchange registers directly, so the modelled
shared-memory traffic is zero for the warp stage and one word per warp for
the cross-warp stage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array

#: Threads per CUDA block assumed by the scan launch model.
SCAN_BLOCK = 256


def _scan_counters(n: int, elem_bytes: int, use_shuffle: bool) -> list[KernelCounters]:
    """Counter sets for the scan launch sequence over ``n`` elements."""
    if n == 0:
        return []
    blocks = math.ceil(n / SCAN_BLOCK)
    warps_per_block = SCAN_BLOCK // WARP_SIZE
    # Kernel 1: block-local scans. Each element read+written once; the
    # intra-block tree does ~2 add per element.
    k1 = KernelCounters(
        flops=2.0 * n,
        global_bytes_read=n * elem_bytes,
        global_bytes_written=n * elem_bytes + blocks * elem_bytes,
        global_txn_read=coalesced_transactions(n, elem_bytes),
        global_txn_written=coalesced_transactions(n + blocks, elem_bytes),
        threads=blocks * SCAN_BLOCK,
        warps=blocks * warps_per_block,
    )
    if use_shuffle:
        # cross-warp exchange: one shared word per warp, no bank conflicts
        k1.shared_accesses = 2.0 * blocks * warps_per_block
    else:
        # classic shared-memory tree: ~2 accesses per element per level pair
        k1.shared_accesses = 4.0 * n
        k1.shared_bank_conflict_extra = 0.25 * n  # typical tree conflicts
    out = [k1]
    if blocks > 1:
        # Kernel 2: scan of block sums (small; recurse one level is enough
        # for every size this repo launches).
        out.extend(_scan_counters(blocks, elem_bytes, use_shuffle))
        # Kernel 3: uniform add of block offsets.
        out.append(
            KernelCounters(
                flops=1.0 * n,
                global_bytes_read=n * elem_bytes + blocks * elem_bytes,
                global_bytes_written=n * elem_bytes,
                global_txn_read=coalesced_transactions(n + blocks, elem_bytes),
                global_txn_written=coalesced_transactions(n, elem_bytes),
                threads=blocks * SCAN_BLOCK,
                warps=blocks * warps_per_block,
            )
        )
    return out


def _record(device: VirtualDevice | None, name: str, counters: list[KernelCounters]) -> None:
    if device is not None:
        for i, c in enumerate(counters):
            device.launch(f"{name}[{i}]", c)


def exclusive_scan(
    values: np.ndarray,
    device: VirtualDevice | None = None,
    *,
    use_shuffle: bool = True,
) -> np.ndarray:
    """Exclusive prefix sum of a 1-D array.

    ``out[i] = sum(values[:i])``, ``out[0] = 0``; same shape as the input.
    With a ``device``, the launch sequence of the chained-scan CUDA
    implementation is recorded; ``use_shuffle`` models the Kepler
    shuffle-based reduction (the paper's choice) instead of the classic
    shared-memory tree, which changes the modelled cost, never the result.
    """
    values = check_array("values", values, ndim=1)
    _record(device, "exclusive_scan", _scan_counters(values.size, values.itemsize, use_shuffle))
    out = np.zeros(values.size, dtype=np.result_type(values.dtype, np.int64)
                   if np.issubdtype(values.dtype, np.integer) else values.dtype)
    if values.size > 1:
        np.cumsum(values[:-1], out=out[1:])
    return out
