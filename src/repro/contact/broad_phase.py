"""Broad-phase contact detection: AABB overlap over all block pairs.

Serial DDA walks the strict upper triangle of the ``n x n`` pair matrix.
On the GPU the triangle causes load imbalance (thread ``i`` tests ``n - i``
pairs), so the paper reshapes it into an ``n x ceil(n/2)`` *full* matrix:
row ``i``'s tests are the pairs ``(i, i+1..i+n/2)`` wrapped modulo ``n``,
which covers every unordered pair exactly once (for odd ``n``; for even
``n`` the last half-column is deduplicated). Each CUDA block then handles
an ``m x m`` tile whose ``2m - 1`` distinct AABBs live in shared memory.

:func:`gpu_pair_mapping` exposes the mapping itself (tested for exact
coverage) and is the specification :func:`broad_phase_pairs` is tested
against; the latter performs the real AABB tests on that grid and
records the tiled kernel's modelled cost (:func:`record_broad_phase`).
:func:`overlapping_pairs` runs the same four tests on a given pair list,
keeping its order: a superset found at a wider margin yields, at the
narrower one, the list :func:`broad_phase_pairs` returns.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array, check_positive

#: Tile width of the paper's shared-memory scheme.
TILE = 16


def gpu_pair_mapping(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n x ceil(n/2)`` load-balanced pair mapping.

    Returns ``(i, j)`` arrays covering each unordered pair exactly once:
    entry ``(row, k)`` maps to the pair ``(row, (row + k + 1) mod n)``,
    with the duplicate half-column removed for even ``n``.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    half = n // 2
    rows = np.repeat(np.arange(n, dtype=np.int64), half)
    ks = np.tile(np.arange(half, dtype=np.int64), n)
    cols = (rows + ks + 1) % n
    if n % 2 == 0:
        # column k = half-1 enumerates each diametral pair twice; keep the
        # copy whose row is the smaller id
        keep = (ks < half - 1) | (rows < cols)
        rows, cols = rows[keep], cols[keep]
    i = np.minimum(rows, cols)
    j = np.maximum(rows, cols)
    return i, j


def broad_phase_pairs(
    aabbs: np.ndarray,
    margin: float,
    device: VirtualDevice | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping block pairs ``(i, j)`` with ``i < j`` (GPU-style).

    The four interval tests run directly on the ``(n, n // 2)`` grid of
    :func:`gpu_pair_mapping` — row side broadcast, column side a window
    over the wrap-extended coordinates — so neither a pair index nor an
    AABB row is gathered; ``(i, j)`` are formed for the hits only, in
    the mapping's row-major order.

    Parameters
    ----------
    aabbs:
        ``(n, 4)`` per-block ``[xmin, ymin, xmax, ymax]``.
    margin:
        Contact threshold added to every box.
    device:
        Optional virtual device; records the tiled ``n x (n/2)`` kernel.
    """
    aabbs = check_array("aabbs", aabbs, dtype=np.float64, shape=(None, 4))
    check_positive("margin", margin, strict=False)
    n = aabbs.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    half = n // 2

    def columns(values: np.ndarray) -> np.ndarray:
        # entry (row, k) reads block (row + k + 1) mod n
        wrapped = np.concatenate([values[1:], values[:half]])
        return sliding_window_view(wrapped, half)

    x0, y0 = aabbs[:, 0], aabbs[:, 1]
    x1, y1 = aabbs[:, 2] + margin, aabbs[:, 3] + margin
    hits = (
        (x0[:, None] <= columns(x1))
        & (columns(x0) <= x1[:, None])
        & (y0[:, None] <= columns(y1))
        & (columns(y0) <= y1[:, None])
    )
    if n % 2 == 0:
        # column half-1 enumerates each diametral pair twice; keep the
        # copy whose row is the smaller id
        hits[half:, half - 1] = False
    # stream compaction: the hit count is the one scalar the host learns
    rows, ks = np.nonzero(hits)
    if device is not None:
        record_broad_phase(device, n, rows.size)
    cols = (rows + ks + 1) % n
    return np.minimum(rows, cols), np.maximum(rows, cols)


def record_broad_phase(device: VirtualDevice, n: int, n_hits: int) -> None:
    """Record the tiled ``n x (n/2)`` kernel of an ``n``-block broad
    phase that found ``n_hits`` overlapping pairs (none below two
    blocks: there is no pair to test)."""
    if n < 2:
        return
    tests = n * (n - 1) // 2
    tiles = math.ceil(n / TILE) * math.ceil((n // 2) / TILE)
    device.launch(
        "broad_phase_tiled",
        KernelCounters(
            flops=8.0 * tests,
            # each m x m tile loads 2m-1 distinct AABBs once
            global_bytes_read=tiles * (2 * TILE - 1) * 32.0,
            global_bytes_written=n_hits * 8.0,
            global_txn_read=tiles * coalesced_transactions(2 * TILE - 1, 32),
            global_txn_written=coalesced_transactions(n_hits, 8),
            shared_accesses=2.0 * tests,
            threads=tests,
            warps=max(1, tests // WARP_SIZE),
            branch_regions=max(1, tests // WARP_SIZE),
            divergent_branch_regions=max(1, tests // WARP_SIZE)
            * min(1.0, 2.0 * (n_hits / tests)),
        ),
    )


def overlapping_pairs(
    aabbs: np.ndarray, margin: float, pairs_i: np.ndarray, pairs_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``(pairs_i, pairs_j)`` whose boxes overlap at
    ``margin``, in their given order.

    The four interval tests of :func:`broad_phase_pairs` on the same
    values (each test is symmetric in the two blocks), so a pair passes
    here exactly when it is a hit there.
    """
    x0, y0 = aabbs[:, 0], aabbs[:, 1]
    x1, y1 = aabbs[:, 2] + margin, aabbs[:, 3] + margin
    i, j = pairs_i, pairs_j
    keep = (
        (x0[i] <= x1[j]) & (x0[j] <= x1[i])
        & (y0[i] <= y1[j]) & (y0[j] <= y1[i])
    )
    return i[keep], j[keep]
