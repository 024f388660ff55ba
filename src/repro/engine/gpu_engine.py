"""The Fig.-2 GPU pipeline: data classification end to end.

Every module runs as vectorised kernels recorded on the virtual device:

* broad phase uses the load-balanced ``n x (n/2)`` pair mapping;
* the narrow phase classifies contacts into VE / VV1 / VV2 successive
  arrays (classifications 1 and 2);
* contact transfer runs as sorted search, initialisation as per-kind
  uniform kernels;
* non-diagonal matrix building classifies contacts into categories
  C1..C5 (classification 3) and runs one uniform kernel per category;
* assembly is the write-conflict-free Fig.-4 sort + scan scheme;
* interpenetration checking is the *restructured* (predicated) branch
  form of Section III.D;
* no intermediate result ever leaves the device — the whole step is one
  ledger of device kernels, as the paper's "minimize data transmissions"
  design requires.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.categories import N_CATEGORIES, classify_categories
from repro.contact.contact_set import VV2, ContactSet
from repro.engine.base import Charges, EngineBase
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.compact import partition_by_label


def _diagonal(device, n):
    device.launch(
        "diag_submatrix_build",
        KernelCounters(
            flops=700.0 * n,
            global_bytes_read=400.0 * n,
            global_bytes_written=(36.0 + 6.0) * 8 * n,
            global_txn_read=coalesced_transactions(n * 50, 8),
            global_txn_written=coalesced_transactions(n * 42, 8),
            threads=n * 6,
            warps=max(1, n * 6 // WARP_SIZE),
        ),
    )


def _nondiagonal(device, contacts: ContactSet):
    # third data classification: categories C1..C5, one uniform kernel
    # per category (the framework's divergence-avoidance step)
    if not contacts.m:
        return
    categories = classify_categories(
        contacts.prev_state, contacts.state, contacts.kind == VV2
    )
    perm, offsets = partition_by_label(categories, N_CATEGORIES, device)
    counts = np.diff(offsets)
    for cat, count in enumerate(counts[:-1]):  # abandoned excluded
        if count == 0:
            continue
        device.launch(
            f"nondiag_build_C{cat + 1}",
            KernelCounters(
                flops=(3 * 36 * 4 + 120.0) * float(count),
                global_bytes_read=500.0 * float(count),
                global_bytes_written=3 * 36.0 * 8 * float(count),
                global_txn_read=coalesced_transactions(int(count) * 63, 8),
                global_txn_written=coalesced_transactions(int(count) * 108, 8),
                texture_bytes=96.0 * float(count),
                threads=float(count) * 6,
                warps=max(1, int(count) * 6 // WARP_SIZE),
                branch_regions=max(1, int(count) // WARP_SIZE),
                divergent_branch_regions=0.0,  # uniform category
            ),
        )


def _interpenetration(device, m):
    # restructured-branch kernel (Section III.D): computation is unified,
    # branching happens only at register writes, so the only divergence
    # left is the final predicated stores
    if not m:
        return
    device.launch(
        "interpenetration_check_restructured",
        KernelCounters(
            flops=180.0 * m,
            global_bytes_read=300.0 * m,
            global_bytes_written=24.0 * m,
            global_txn_read=coalesced_transactions(m * 38, 8),
            global_txn_written=coalesced_transactions(m * 3, 8),
            texture_bytes=96.0 * m,
            threads=m,
            warps=max(1, m // WARP_SIZE),
            branch_regions=3.0 * max(1, m // WARP_SIZE),
            divergent_branch_regions=0.3 * max(1, m // WARP_SIZE),
        ),
    )


def _update(device, v):
    device.launch(
        "data_update",
        KernelCounters(
            flops=30.0 * v,
            global_bytes_read=(16.0 + 56.0) * v,
            global_bytes_written=16.0 * v,
            global_txn_read=coalesced_transactions(v * 9, 8),
            global_txn_written=coalesced_transactions(v * 2, 8),
            threads=v,
            warps=max(1, v // WARP_SIZE),
        ),
    )


#: The Fig.-2 kernels; detection and the Fig.-4 assembly charge themselves.
GPU_CHARGES = Charges(
    detection=None,
    diagonal=_diagonal,
    nondiagonal=_nondiagonal,
    assembly=None,
    interpenetration=_interpenetration,
    update=_update,
)


class GpuEngine(EngineBase):
    """GPU pipeline with the data-classification framework (paper Fig. 2),
    on the :data:`~repro.gpu.device.K40` profile unless told otherwise."""

    charges = GPU_CHARGES
