"""Sorted search: vectorised binary search over a sorted array.

The paper's contact-transfer stage assigns one half-warp (16 threads) per
previous-step contact, which then searches the current step's contacts
inside the index range of its minor block number. :func:`sorted_search`
models that access pattern: queries read through the texture path (cached,
irregular) and each query costs ``log2`` probes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.util.validation import check_array

#: Threads cooperating per query in the paper's contact transfer.
HALF_WARP = 16


def record_search(device: VirtualDevice, n_hay: int, q: int, hay_bytes=8, q_bytes=8):
    """Record :func:`sorted_search`'s launch for ``q`` needles in ``n_hay``
    keys, a function of the sizes alone (nothing for no needles)."""
    if q:
        probes = max(1, math.ceil(math.log2(max(2, n_hay))))
        device.launch(
            "sorted_search",
            KernelCounters(
                flops=float(q * probes),
                global_bytes_read=q * q_bytes,
                global_txn_read=coalesced_transactions(q, q_bytes),
                texture_bytes=float(q * probes * hay_bytes),
                threads=q * HALF_WARP,
                warps=max(1, q * HALF_WARP // 32),
                branch_regions=float(q * probes) / 32.0 * HALF_WARP,
                divergent_branch_regions=float(q * probes) / 64.0 * HALF_WARP,
            ),
        )


def sorted_search(
    haystack: np.ndarray,
    needles: np.ndarray,
    device: VirtualDevice | None = None,
    *,
    side: str = "left",
) -> np.ndarray:
    """``np.searchsorted`` with the half-warp-per-query cost model.

    Parameters
    ----------
    haystack:
        Sorted 1-D array being searched.
    needles:
        Query values.
    side:
        ``"left"`` or ``"right"`` (as in :func:`numpy.searchsorted`).
    """
    haystack = check_array("haystack", haystack, ndim=1)
    needles = check_array("needles", needles, ndim=1)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if haystack.size > 1 and np.any(haystack[1:] < haystack[:-1]):  # lint: sync-ok[validation-gate] -- sortedness check, raises before any launch
        raise ValueError("haystack must be sorted ascending")
    if device is not None:
        record_search(device, haystack.size, needles.size,
                      haystack.itemsize, needles.itemsize)
    return np.searchsorted(haystack, needles, side=side)
