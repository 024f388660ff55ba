import numpy as np

from repro.contact.contact_set import VE, VV1, VV2
from repro.contact.narrow_phase import narrow_phase
from repro.core.blocks import Block, BlockSystem
from repro.geometry.distance import edge_penetration

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def system_of(polys):
    return BlockSystem([Block(p) for p in polys])


def detect(system, threshold=0.05):
    n = system.n_blocks
    pairs = np.array(
        [(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64
    ).reshape(-1, 2)
    return narrow_phase(system, pairs[:, 0], pairs[:, 1], threshold)


class TestVertexEdge:
    def test_vertex_on_edge_interior(self):
        # small block sitting on a wide block: corners land on edge interior
        base = np.array([[0, 0], [4, 0], [4, 1], [0, 1.0]])
        top = SQ * 0.5 + np.array([1.5, 1.0 + 0.01])
        s = system_of([base, top])
        cs = detect(s, threshold=0.05)
        assert cs.m >= 2
        # the top block's two bottom corners are VE against the base edge
        ve = cs.select(np.flatnonzero(cs.kind == VE))
        assert ve.m >= 2
        assert (ve.block_i == 1).all()
        assert (ve.block_j == 0).all()

    def test_edges_outside_positive(self):
        base = np.array([[0, 0], [4, 0], [4, 1], [0, 1.0]])
        top = SQ * 0.5 + np.array([1.5, 1.02])
        s = system_of([base, top])
        cs = detect(s)
        p1, e1, e2, _, _ = cs.geometry(s)
        d = edge_penetration(p1, e1, e2)
        # gap contacts: outside-positive convention
        assert (d > 0).all()

    def test_penetrating_vertex_detected_with_negative_distance(self):
        base = np.array([[0, 0], [4, 0], [4, 1], [0, 1.0]])
        top = SQ * 0.5 + np.array([1.5, 0.98])  # 0.02 penetration
        s = system_of([base, top])
        cs = detect(s)
        p1, e1, e2, _, _ = cs.geometry(s)
        d = edge_penetration(p1, e1, e2)
        assert (d < 0).any()

    def test_far_blocks_no_contact(self):
        s = system_of([SQ, SQ + np.array([5.0, 0.0])])
        cs = detect(s)
        assert cs.m == 0

    def test_ratio_matches_position(self):
        base = np.array([[0, 0], [4, 0], [4, 1], [0, 1.0]])
        top = SQ * 0.5 + np.array([1.5, 1.01])
        s = system_of([base, top])
        cs = detect(s)
        # contact point at x = 1.5 or 2.0 on the reversed top edge of the
        # base, which runs (0,1) -> (4,1) reversed = (4,1)...(0,1)?
        # verify via geometry: E1 + r*(E2-E1) is the vertex's projection
        p1, e1, e2, _, _ = cs.geometry(s)
        proj = e1 + cs.ratio[:, None] * (e2 - e1)
        np.testing.assert_allclose(proj[:, 0], p1[:, 0], atol=1e-9)


class TestVertexVertex:
    def test_corner_to_corner_parallel_edges_vv1(self):
        # axis-aligned squares touching corner-to-corner: the facing edges
        # are antiparallel, so per the paper's definition ("contacts with
        # parallel edges are classified as VV1") this is VV1
        a = SQ
        b = SQ + np.array([1.02, 1.02])
        s = system_of([a, b])
        cs = detect(s, threshold=0.1)
        assert cs.m >= 1
        assert (cs.kind == VV1).all()

    def _vv2_system(self):
        # 45-degree square whose bottom apex points at A's (1, 1) corner:
        # corners face each other and no edges are parallel -> true VV2
        th = np.radians(45.0)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        b = (SQ - 0.5) @ rot.T + np.array([1.05, 1.05 + np.sqrt(0.5)])
        return system_of([SQ, b])

    def test_rotated_corner_is_vv2(self):
        cs = detect(self._vv2_system(), threshold=0.2)
        assert cs.m >= 1
        assert (cs.kind == VV2).any()

    def test_vv2_deduplicated(self):
        cs = detect(self._vv2_system(), threshold=0.2)
        vv2 = cs.select(np.flatnonzero(cs.kind == VV2))
        # only one orientation survives (block_i < block_j)
        assert vv2.m >= 1
        assert (vv2.block_i < vv2.block_j).all()

    def test_aligned_corners_vv1(self):
        # two identical squares side by side: facing edges are antiparallel,
        # corner pairs classify as VV1
        s = system_of([SQ, SQ + np.array([1.02, 0.0])])
        cs = detect(s, threshold=0.1)
        assert cs.m >= 2
        assert (np.isin(cs.kind, (VE, VV1))).all()
        assert (cs.kind == VV1).any()

    def test_rotated_corner_vv2(self):
        # rotate the second square 30 degrees: no antiparallel edges
        th = np.radians(30.0)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        b = (SQ - 0.5) @ rot.T + np.array([1.55, 0.5])
        s = system_of([SQ, b])
        cs = detect(s, threshold=0.15)
        if cs.m:
            assert (cs.kind != VV1).all()


class TestFrameworkLayout:
    def test_grouped_by_kind(self):
        base = np.array([[0, 0], [6, 0], [6, 1], [0, 1.0]])
        top1 = SQ * 0.5 + np.array([1.0, 1.01])
        top2 = SQ + np.array([4.0, 1.02])
        s = system_of([base, top1, top2])
        cs = detect(s, threshold=0.06)
        assert cs.m >= 2
        # kinds are non-decreasing (successive array segments)
        assert (np.diff(cs.kind) >= 0).all()

    def test_records_kernels_on_device(self, device):
        base = np.array([[0, 0], [4, 0], [4, 1], [0, 1.0]])
        top = SQ * 0.5 + np.array([1.5, 1.01])
        s = system_of([base, top])
        pairs = np.array([[0, 1]], dtype=np.int64)
        narrow_phase(s, pairs[:, 0], pairs[:, 1], 0.05, device)
        names = set(device.time_by_kernel())
        assert any("distance_judgment" in n for n in names)

    def test_empty_pairs(self):
        s = system_of([SQ])
        cs = narrow_phase(
            s, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0.05
        )
        assert cs.m == 0

    def test_no_self_contacts(self):
        s = system_of([SQ, SQ + np.array([1.01, 0.0])])
        cs = detect(s, threshold=0.1)
        assert (cs.block_i != cs.block_j).all()
