import numpy as np

from repro.assembly.contact_springs import LOCK, OPEN, SLIDE
from repro.contact.contact_set import VE, ContactSet
from repro.contact.transfer import transfer_contacts


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
