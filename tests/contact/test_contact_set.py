import dataclasses

import numpy as np
import pytest

from repro.assembly.contact_springs import LOCK, OPEN
from repro.contact.contact_set import VE, VV2, ContactSet
from repro.core.blocks import Block, BlockSystem

FLOAT_COLUMNS = ("ratio", "shear_sign", "pn", "ps", "normal_disp")

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def make_set(m=3):
    return ContactSet(
        block_i=np.zeros(m, dtype=np.int64),
        block_j=np.ones(m, dtype=np.int64),
        vertex_idx=np.arange(m, dtype=np.int64),
        e1_idx=np.arange(m, dtype=np.int64) + 4,
        e2_idx=np.arange(m, dtype=np.int64) + 5,
        kind=np.full(m, VE, dtype=np.int64),
    )


class TestContactSet:
    def test_defaults(self):
        cs = make_set()
        assert cs.m == 3
        assert (cs.state == OPEN).all()
        assert (cs.ratio == 0.5).all()
        assert (cs.shear_sign == 1.0).all()

    def test_empty(self):
        cs = ContactSet.empty()
        assert cs.m == 0

    def test_self_contact_rejected(self):
        with pytest.raises(ValueError, match="self-contact"):
            ContactSet(
                block_i=np.array([0]),
                block_j=np.array([0]),
                vertex_idx=np.array([0]),
                e1_idx=np.array([1]),
                e2_idx=np.array([2]),
                kind=np.array([VE]),
            )

    def test_keys_unique_per_contact_data(self):
        cs = make_set(4)
        keys = cs.keys(100)
        assert np.unique(keys).size == 4

    def test_keys_equal_for_equal_data(self):
        a = make_set(2)
        b = make_set(2)
        np.testing.assert_array_equal(a.keys(50), b.keys(50))

    def test_minor_block(self):
        cs = ContactSet(
            block_i=np.array([3, 1]),
            block_j=np.array([2, 5]),
            vertex_idx=np.zeros(2, dtype=np.int64),
            e1_idx=np.ones(2, dtype=np.int64),
            e2_idx=np.full(2, 2, dtype=np.int64),
            kind=np.zeros(2, dtype=np.int64),
        )
        np.testing.assert_array_equal(cs.minor_block(), [2, 1])

    def test_select(self):
        cs = make_set(5)
        cs.state[:] = np.arange(5) % 3
        sub = cs.select(np.array([4, 0]))
        assert sub.m == 2
        np.testing.assert_array_equal(sub.vertex_idx, [4, 0])
        np.testing.assert_array_equal(sub.state, [1, 0])

    def test_copy_independent(self):
        cs = make_set()
        c = cs.copy()
        c.state[0] = LOCK
        assert cs.state[0] == OPEN

    def test_copy_keeps_dtypes_owns_its_columns_and_shares_the_load_sum(self):
        """A copy copies the 13 columns as they are (no second
        validation): same dtypes and bytes, no shared memory, and the
        one :meth:`ContactSet.load_sum` structure of the table."""
        cs = make_set(4)
        cs.ratio[:] = [0.1, 0.2, 0.3, 0.4]
        built = cs.load_sum(2)
        c = cs.copy()
        for f in dataclasses.fields(ContactSet):
            a, b = getattr(cs, f.name), getattr(c, f.name)
            assert a.dtype == b.dtype == (
                np.float64 if f.name in FLOAT_COLUMNS else np.int64
            ), f.name
            assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)
        assert c.load_sum(2) is built and c.copy()._load_sum is cs._load_sum

    def test_only_missing_columns_get_defaults(self):
        """Given columns are validated (cast safely, shape checked);
        defaults are made for the others only."""
        state = np.array([2, 1, 0], dtype=np.int32)
        cs = ContactSet(*(np.arange(3) + k for k in (0, 3, 6, 9, 12)),
                        np.zeros(3, dtype=np.int64), state=state)
        assert cs.state.dtype == np.int64 and list(cs.state) == [2, 1, 0]
        assert list(cs.prev_state) == [OPEN] * 3
        assert cs.normal_disp.dtype == np.float64 and not cs.normal_disp.any()
        with pytest.raises(ValueError, match="ratio"):
            ContactSet(*(np.arange(3) + k for k in (0, 3, 6, 9, 12)),
                       np.zeros(3, dtype=np.int64), ratio=np.zeros(2))

    def test_geometry(self):
        system = BlockSystem([Block(SQ), Block(SQ + np.array([2.0, 0.0]))])
        cs = ContactSet(
            block_i=np.array([0]),
            block_j=np.array([1]),
            vertex_idx=np.array([1]),  # (1, 0) of block 0
            e1_idx=np.array([4]),  # (2, 0)
            e2_idx=np.array([7]),  # (2, 1)
            kind=np.array([VV2]),
        )
        p1, e1, e2, ci, cj = cs.geometry(system)
        np.testing.assert_allclose(p1[0], [1.0, 0.0])
        np.testing.assert_allclose(e1[0], [2.0, 0.0])
        np.testing.assert_allclose(ci[0], [0.5, 0.5])
        np.testing.assert_allclose(cj[0], [2.5, 0.5])
