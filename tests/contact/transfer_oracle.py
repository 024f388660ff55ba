"""Reference implementation the contact-transfer tests compare against.

:func:`transfer_oracle` is :func:`repro.contact.transfer.transfer_contacts`
as it stood before the in-place match and the kept sort (commit 64e702c):
every call argsorts the current keys, records the radix sort of the minor
block numbers, and binary-searches every previous key twice (once for
the match, once more for membership). No engine runs it; it is kept,
unedited but for the name, as the independent implementation the
transfer is held to bit for bit — every ``ContactSet`` column and every
ledger record (``tests/contact/test_transfer.py``) — on tables whose
keys are unique, which is what detection emits.
"""

from __future__ import annotations

import numpy as np

from repro.contact.contact_set import ContactSet
from repro.gpu.kernel import VirtualDevice
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.sorted_search import sorted_search


def transfer_oracle(
    previous: ContactSet,
    current: ContactSet,
    n_vertices: int,
    device: VirtualDevice | None = None,
    *,
    metrics=None,
) -> ContactSet:
    """Return ``current`` with matched contacts inheriting previous state.

    Matching is exact on the contact data key (vertex index, edge indices).
    Unmatched current contacts keep fresh OPEN state; unmatched previous
    contacts are dropped (their blocks separated).

    The returned set keeps ``current``'s row order (grouped by kind), so
    downstream kernels see the same successive-array layout. When a
    ``metrics`` registry is given, the ``contact_transfer.hits`` /
    ``contact_transfer.misses`` counters record how many current
    contacts inherited state versus started fresh.
    """
    if current.m == 0:
        return current
    cur_keys = current.keys(n_vertices)
    if previous.m == 0:
        if metrics is not None and current.m:
            metrics.inc("contact_transfer.misses", current.m)
        out = current.copy()
        out.prev_state[:] = out.state
        return out

    # sort current contacts by (minor block, key) as the paper does; the
    # composite is monotone in the packed key alone only within a block
    # group, so sort on the packed key (equivalent lookup structure)
    order = np.argsort(cur_keys, kind="stable")
    sorted_keys = cur_keys[order]
    if device is not None:
        # model the radix sort of the current keys (the paper sorts array
        # A -> SA); results are identical, so reuse the argsort above
        radix_sort_pairs(
            current.minor_block().astype(np.int64), cur_keys, device,
            key_bits=max(1, int(max(2, current.block_j.max() + 1) - 1).bit_length()),
        )

    prev_keys = previous.keys(n_vertices)
    lo = sorted_search(sorted_keys, prev_keys, device, side="left")
    hi = sorted_search(sorted_keys, prev_keys, side="right")
    matched_prev = np.flatnonzero(hi > lo)
    matched_cur = order[lo[matched_prev]]
    if metrics is not None:
        metrics.inc("contact_transfer.hits", int(matched_cur.size))
        metrics.inc("contact_transfer.misses",
                    int(current.m - matched_cur.size))

    out = current.copy()
    out.state[matched_cur] = previous.state[matched_prev]
    out.prev_state[matched_cur] = previous.state[matched_prev]
    out.shear_sign[matched_cur] = previous.shear_sign[matched_prev]
    out.normal_disp[matched_cur] = previous.normal_disp[matched_prev]
    out.ratio[matched_cur] = previous.ratio[matched_prev]
    # unmatched rows: prev_state mirrors the fresh state
    unmatched = np.ones(current.m, dtype=bool)
    unmatched[matched_cur] = False
    out.prev_state[unmatched] = out.state[unmatched]
    return out
