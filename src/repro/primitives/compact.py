"""Stream compaction and label partitioning.

The paper's data-classification framework repeatedly "abandons" contact
candidates that fail a judgment and packs the survivors into successive
arrays ("Valid data will be stored in a successive array"). On the GPU this
is mask -> exclusive scan -> scatter; :func:`stream_compact` models exactly
that launch sequence.

:func:`partition_by_label` is the multi-way version used for the
VE / VV1 / VV2 split and the C1..C5 category split: a radix sort on the
small label key, which both compacts and groups in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.scan import exclusive_scan
from repro.util.validation import check_array


def stream_compact(
    mask: np.ndarray,
    device: VirtualDevice | None = None,
    *,
    payload_bytes: int = 8,
) -> np.ndarray:
    """Indices of true entries, via the scan + scatter construction.

    ``mask`` is a 1-D boolean array of shape ``(n,)``; returns the 1-D
    gather indices (``np.flatnonzero(mask)``) of the ``k`` survivors.
    Callers apply them to however many payload arrays they carry.
    ``payload_bytes`` sizes the modelled scatter traffic per surviving
    element.
    """
    mask = check_array("mask", mask, ndim=1).astype(bool)
    positions = exclusive_scan(mask.astype(np.int64), device)
    keep = np.flatnonzero(mask)
    if device is not None and mask.size:
        n, k = mask.size, keep.size
        device.launch(
            "compact_scatter",
            KernelCounters(
                flops=float(n),
                global_bytes_read=n * (1 + 8) + k * payload_bytes,
                global_bytes_written=k * (8 + payload_bytes),
                global_txn_read=coalesced_transactions(n, 9),
                global_txn_written=float(
                    gather_transactions(positions[keep], payload_bytes)
                )
                if k
                else 0.0,
                threads=n,
                warps=max(1, n // WARP_SIZE),
                branch_regions=max(1, n // WARP_SIZE),
            ),
        )
    return keep


def partition_by_label(
    labels: np.ndarray,
    n_labels: int,
    device: VirtualDevice | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group element indices by small integer label.

    Parameters
    ----------
    labels:
        Per-element label in ``[0, n_labels)``. Use a reserved label (e.g.
        ``n_labels - 1``) for "abandoned" data and drop its group.
    n_labels:
        Number of distinct labels.

    Returns
    -------
    (perm, offsets)
        ``perm`` reorders elements so equal labels are adjacent (stable);
        ``offsets`` has length ``n_labels + 1`` with group ``g`` occupying
        ``perm[offsets[g]:offsets[g+1]]``.
    """
    labels = check_array("labels", labels, ndim=1)
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    if n_labels <= 0:
        raise ValueError(f"n_labels must be positive, got {n_labels}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):  # lint: sync-ok[validation-gate] -- label range check, raises before any launch
        raise ValueError(f"labels out of range [0, {n_labels})")
    bits = max(1, (n_labels - 1).bit_length())
    sorted_labels, perm = radix_sort_pairs(
        labels.astype(np.int64), np.zeros(1), device, key_bits=bits,
        digit_bits=min(8, bits),
    )
    counts = np.bincount(sorted_labels, minlength=n_labels)
    offsets = np.zeros(n_labels + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return perm, offsets
