import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from transfer_oracle import transfer_oracle

from repro.assembly.contact_springs import LOCK, OPEN, SLIDE
from repro.contact.contact_set import VE, ContactSet
from repro.contact.transfer import transfer_contacts
from repro.gpu.device import K40
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.obs.metrics import MetricsRegistry


def make_set(vertex_idx, e1_idx, e2_idx, block_i=None, block_j=None):
    m = len(vertex_idx)
    return ContactSet(
        block_i=np.asarray(block_i if block_i is not None else [0] * m, dtype=np.int64),
        block_j=np.asarray(block_j if block_j is not None else [1] * m, dtype=np.int64),
        vertex_idx=np.asarray(vertex_idx, dtype=np.int64),
        e1_idx=np.asarray(e1_idx, dtype=np.int64),
        e2_idx=np.asarray(e2_idx, dtype=np.int64),
        kind=np.full(m, VE, dtype=np.int64),
    )


class TestTransferContacts:
    def test_matched_contact_inherits_state(self):
        prev = make_set([0], [4], [5])
        prev.state[:] = LOCK
        prev.normal_disp[:] = -0.1
        prev.shear_sign[:] = -1.0
        cur = make_set([0], [4], [5])
        out = transfer_contacts(prev, cur, n_vertices=10)
        assert out.state[0] == LOCK
        assert out.prev_state[0] == LOCK
        assert out.normal_disp[0] == -0.1
        assert out.shear_sign[0] == -1.0

    def test_unmatched_current_stays_open(self):
        prev = make_set([0], [4], [5])
        prev.state[:] = LOCK
        cur = make_set([1], [4], [5])
        out = transfer_contacts(prev, cur, n_vertices=10)
        assert out.state[0] == OPEN
        assert out.prev_state[0] == OPEN

    def test_unmatched_previous_dropped(self):
        prev = make_set([0, 1], [4, 6], [5, 7])
        prev.state[:] = [LOCK, SLIDE]
        cur = make_set([1], [6], [7])
        out = transfer_contacts(prev, cur, n_vertices=10)
        assert out.m == 1
        assert out.state[0] == SLIDE

    def test_mixed_batch(self, device):
        prev = make_set([0, 1, 2], [4, 5, 6], [5, 6, 7])
        prev.state[:] = [LOCK, SLIDE, LOCK]
        cur = make_set([2, 3, 0], [6, 9, 4], [7, 8, 5])
        out = transfer_contacts(prev, cur, n_vertices=16, device=device)
        assert out.state[0] == LOCK  # matched (2, 6, 7)
        assert out.state[1] == OPEN  # new
        assert out.state[2] == LOCK  # matched (0, 4, 5)
        assert device.launches() >= 1

    def test_row_order_preserved(self):
        prev = make_set([5], [6], [7])
        cur = make_set([9, 5, 1], [2, 6, 3], [3, 7, 4])
        out = transfer_contacts(prev, cur, n_vertices=16)
        np.testing.assert_array_equal(out.vertex_idx, cur.vertex_idx)

    def test_empty_previous(self):
        cur = make_set([0], [4], [5])
        cur.state[:] = SLIDE
        out = transfer_contacts(ContactSet.empty(), cur, n_vertices=10)
        assert out.m == 1
        assert out.prev_state[0] == SLIDE

    def test_empty_current(self):
        prev = make_set([0], [4], [5])
        out = transfer_contacts(prev, ContactSet.empty(), n_vertices=10)
        assert out.m == 0

    def test_same_edge_different_vertex_not_matched(self):
        prev = make_set([0], [4], [5])
        prev.state[:] = LOCK
        cur = make_set([3], [4], [5])
        out = transfer_contacts(prev, cur, n_vertices=10)
        assert out.state[0] == OPEN


# ----------------------------------------------------------------------
# held to the full search it replaced (tests/contact/transfer_oracle.py)
# ----------------------------------------------------------------------
NV = 40  # vertices: a key is (v * NV + e1) * NV + e2 < NV ** 3

LAYOUTS = ("aligned", "shuffled", "overlap", "unequal", "no_previous",
           "no_current")


def keyed_set(keys, rng):
    """A table with the given unique packed keys: the blocks follow the
    key (as a contact's do), kind and state columns are drawn."""
    keys = np.asarray(keys, dtype=np.int64)
    m = keys.size
    block_i = keys % 7
    return ContactSet(
        block_i=block_i,
        block_j=block_i + 1 + keys % 3,
        vertex_idx=keys // (NV * NV),
        e1_idx=keys // NV % NV,
        e2_idx=keys % NV,
        kind=np.sort(rng.integers(0, 3, m)),
        state=rng.integers(0, 3, m),
        prev_state=rng.integers(0, 3, m),
        ratio=rng.random(m),
        shear_sign=rng.choice([-1.0, 1.0], m),
        pn=rng.random(m),
        ps=rng.random(m),
        normal_disp=rng.normal(size=m),
    )


def transfer_tables(layout, seed, n):
    """``(previous, current)`` keyed as ``layout`` says."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(NV**3, size=2 * n + 8, replace=False)
    prev = pool[:n]
    fresh = pool[n : n + rng.integers(1, 8)]
    if layout == "aligned":
        cur = prev
    elif layout == "shuffled":
        cur = rng.permutation(prev)
    elif layout == "overlap":  # some rows leave, some arrive in place
        cur = np.insert(prev[rng.random(n) < 0.7], 0, fresh[:1])
        cur = np.concatenate([cur, fresh[1:]])
    elif layout == "unequal":
        cur = np.concatenate([prev[: rng.integers(0, n + 1)], fresh])
    elif layout == "no_previous":
        prev, cur = prev[:0], pool[:n]
    else:
        cur = prev[:0]
    return keyed_set(prev, rng), keyed_set(cur, rng)


def records(device):
    return [repr((r.name, r.module, r.seconds.hex(), r.counters))
            for r in device.records]


def assert_same_set(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


@given(st.sampled_from(LAYOUTS), st.integers(0, 2**16), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_property_transfer_equals_the_full_search(layout, seed, n):
    """Every column, the hit / miss counters and every ledger record
    equal the full search's, on a device and without one; a second call
    on the kept sort records the same launches again."""
    previous, current = transfer_tables(layout, seed, n)
    kept = KeptLaunches()
    mine, theirs = VirtualDevice(K40), VirtualDevice(K40)
    for _ in range(2):
        got_metrics, want_metrics = MetricsRegistry(), MetricsRegistry()
        got = transfer_contacts(previous, current, NV, mine,
                                metrics=got_metrics, kept=kept)
        want = transfer_oracle(previous, current, NV, theirs,
                               metrics=want_metrics)
        assert_same_set(got, want)
        assert got_metrics.snapshot() == want_metrics.snapshot()
        assert records(mine) == records(theirs)
    assert_same_set(transfer_contacts(previous, current, NV),
                    transfer_oracle(previous, current, NV))
