"""Property-based tests of the narrow phase over random block scenes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact.broad_phase import broad_phase_pairs
from repro.contact.narrow_phase import narrow_phase
from repro.core.blocks import Block, BlockSystem

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def random_scene(seed: int, n: int) -> BlockSystem:
    """n unit squares at random positions/rotations in a small arena."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n):
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        )
        center = rng.uniform(0, 3.0, size=2)
        blocks.append(Block((SQ - 0.5) @ rot.T + center))
    return BlockSystem(blocks)


@given(st.integers(min_value=0, max_value=400),
       st.integers(min_value=2, max_value=7))
@settings(max_examples=40, deadline=None)
def test_property_contact_invariants(seed, n):
    system = random_scene(seed, n)
    threshold = 0.1
    i, j = broad_phase_pairs(system.aabbs, threshold)
    contacts = narrow_phase(system, i, j, threshold)
    if contacts.m == 0:
        return
    pair_set = set(zip(i.tolist(), j.tolist()))
    owner = system.block_of_vertex()
    for k in range(contacts.m):
        bi = int(contacts.block_i[k])
        bj = int(contacts.block_j[k])
        # 1. contacts only between broad-phase survivor pairs
        assert (min(bi, bj), max(bi, bj)) in pair_set
        # 2. vertex belongs to block_i, edge endpoints to block_j
        assert owner[contacts.vertex_idx[k]] == bi
        assert owner[contacts.e1_idx[k]] == bj
        assert owner[contacts.e2_idx[k]] == bj
        # 3. the stored edge is a real boundary edge of block_j (reversed)
        lo, hi = system.offsets[bj], system.offsets[bj + 1]
        e1l = contacts.e1_idx[k] - lo
        e2l = contacts.e2_idx[k] - lo
        count = hi - lo
        assert (e2l + 1) % count == e1l  # E1 = CCW successor of E2
        # 4. ratio within the edge
        assert 0.0 <= contacts.ratio[k] <= 1.0
        # 5. kind codes valid
        assert contacts.kind[k] in (0, 1, 2)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=30, deadline=None)
def test_property_kind_grouping(seed):
    system = random_scene(seed, 5)
    i, j = broad_phase_pairs(system.aabbs, 0.15)
    contacts = narrow_phase(system, i, j, 0.15)
    # the framework contract: successive arrays grouped by kind
    assert (np.diff(contacts.kind) >= 0).all()


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_property_detection_is_deterministic(seed):
    a = random_scene(seed, 4)
    b = random_scene(seed, 4)
    ia, ja = broad_phase_pairs(a.aabbs, 0.1)
    ib, jb = broad_phase_pairs(b.aabbs, 0.1)
    ca = narrow_phase(a, ia, ja, 0.1)
    cb = narrow_phase(b, ib, jb, 0.1)
    assert ca.m == cb.m
    np.testing.assert_array_equal(ca.vertex_idx, cb.vertex_idx)
    np.testing.assert_array_equal(ca.kind, cb.kind)
