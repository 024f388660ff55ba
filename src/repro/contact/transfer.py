"""Contact transfer: carry state from the previous step's contacts.

"Each contact of the previous step will search the contacts of the current
step. If their contact data are the same, then the contact status
parameter, normal displacement, shear displacement, and contact edge ratio
of the previous step are transferred" (paper, Section III.B). Shear
displacement is not carried: no stage reads it (the shear spring
measures each step's own displacement).

The GPU radix-sorts the current contacts by minor block number and
binary-searches each previous contact's match with a half-warp; the
ledger prices exactly that, the sort's records kept while the minor block
numbers repeat (:class:`~repro.gpu.kernel.KeptLaunches`). The host
compares the keys row by row, as most rows keep their place between
steps, and searches only the rows that differ, once. Keys are unique in
a table (the ``duplicate_contact`` contract), so a row matched in place
matches nothing else: the match is the full search's
(``tests/contact/transfer_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.contact.contact_set import ContactSet
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.sorted_search import record_search


def match_keys(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(matched_prev, matched_cur)``: the rows of two tables of unique
    keys whose keys are equal. Rows equal in place match; the others of
    ``cur`` are searched among the others of ``prev``."""
    n = min(prev.size, cur.size)
    same = prev[:n] == cur[:n]
    differ, in_place = np.flatnonzero(~same), np.flatnonzero(same)
    rest_prev = np.concatenate([differ, np.arange(n, prev.size)])
    rest_cur = np.concatenate([differ, np.arange(n, cur.size)])
    order = rest_prev[np.argsort(prev[rest_prev])]
    at = np.minimum(np.searchsorted(prev[order], cur[rest_cur]), order.size - 1)
    found = np.flatnonzero(prev[order[at]] == cur[rest_cur]) if order.size else differ
    return (np.concatenate([in_place, order[at[found]]]),
            np.concatenate([in_place, rest_cur[found]]))


def transfer_contacts(
    previous: ContactSet,
    current: ContactSet,
    n_vertices: int,
    device: VirtualDevice | None = None,
    *,
    metrics=None,
    kept: KeptLaunches | None = None,
) -> ContactSet:
    """Return ``current`` with matched contacts inheriting previous state.

    Matching is exact on the contact data key (vertex index, edge indices).
    Unmatched current contacts keep fresh OPEN state; unmatched previous
    contacts are dropped (their blocks separated).

    The returned set keeps ``current``'s row order (grouped by kind), so
    downstream kernels see the same successive-array layout.
    ``metrics`` counts ``contact_transfer.hits`` / ``.misses``: current
    contacts that inherited state / started fresh. ``kept`` keeps the
    sort's priced launches across calls (a fresh one when omitted).
    """
    if current.m == 0:
        return current
    out = current.copy()
    matched_prev, matched_cur = match_keys(
        previous.keys(n_vertices), current.keys(n_vertices)
    )
    if previous.m and device is not None:
        minor = current.minor_block()
        bits = max(1, int(max(2, current.block_j.max() + 1) - 1).bit_length())
        def price_sort() -> None:  # pricing only: the match is the host's
            radix_sort_pairs(minor, minor, device, key_bits=bits)

        (kept or KeptLaunches()).run(device, price_sort, minor.astype(np.int32), bits)
        record_search(device, current.m, previous.m)
    if metrics is not None:
        if previous.m:
            metrics.inc("contact_transfer.hits", int(matched_cur.size))
        metrics.inc("contact_transfer.misses", int(current.m - matched_cur.size))
    out.state[matched_cur] = previous.state[matched_prev]
    out.shear_sign[matched_cur] = previous.shear_sign[matched_prev]
    out.normal_disp[matched_cur] = previous.normal_disp[matched_prev]
    out.ratio[matched_cur] = previous.ratio[matched_prev]
    # a matched row's previous state is the one it inherited; an
    # unmatched row's mirrors its fresh state
    out.prev_state[:] = out.state
    return out
