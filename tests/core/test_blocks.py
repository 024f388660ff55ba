import copy

import numpy as np
import pytest

from repro.core.blocks import DOF, Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.util.validation import ShapeError

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestBlock:
    def test_ccw_normalisation(self):
        b = Block(SQ[::-1])
        assert b.area > 0

    def test_area_centroid(self):
        b = Block(SQ * 2)
        assert b.area == pytest.approx(4.0)
        np.testing.assert_allclose(b.centroid, [1.0, 1.0])

    def test_degenerate_rejected(self):
        with pytest.raises(ShapeError):
            Block(np.array([[0, 0], [1, 0], [2, 0]], dtype=float))

    def test_second_moments(self):
        sxx, syy, sxy = Block(SQ).second_moments
        assert sxx == pytest.approx(1 / 12)

    def test_aabb(self):
        np.testing.assert_allclose(Block(SQ + 3).aabb, [3, 3, 4, 4])


class TestBlockSystem:
    def _two_blocks(self):
        return BlockSystem([Block(SQ), Block(SQ + np.array([2.0, 0.0]))])

    def test_counts(self):
        s = self._two_blocks()
        assert s.n_blocks == 2
        assert s.n_dof == 2 * DOF
        assert s.vertices.shape == (8, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BlockSystem([])

    def test_block_vertices_view(self):
        s = self._two_blocks()
        np.testing.assert_allclose(s.block_vertices(1), SQ + np.array([2.0, 0.0]))

    def test_cached_quantities(self):
        s = self._two_blocks()
        np.testing.assert_allclose(s.areas, [1.0, 1.0])
        np.testing.assert_allclose(s.centroids[0], [0.5, 0.5])
        np.testing.assert_allclose(s.centroids[1], [2.5, 0.5])

    def test_material_dedup(self):
        m = BlockMaterial(density=1000.0)
        s = BlockSystem([Block(SQ, m), Block(SQ + 2, m), Block(SQ + 4)])
        assert len(s.materials) == 2
        assert s.material_of(0) is s.material_of(1)

    def test_block_of_vertex(self):
        s = self._two_blocks()
        np.testing.assert_array_equal(s.block_of_vertex(), [0] * 4 + [1] * 4)

    def test_edges_are_ccw_loops(self):
        s = self._two_blocks()
        a, b, owner = s.edges()
        assert a.shape == b.shape == (8, 2)
        np.testing.assert_array_equal(owner, [0] * 4 + [1] * 4)
        # each block's edges close the loop
        np.testing.assert_allclose(b[3], a[0])
        np.testing.assert_allclose(b[7], a[4])

    def test_fix_point_validates_block(self):
        s = self._two_blocks()
        with pytest.raises(IndexError):
            s.fix_point(5, 0.0, 0.0)

    def test_fix_block_adds_two_points(self):
        s = self._two_blocks()
        s.fix_block(0)
        assert len(s.fixed_points) == 2
        # the two points are well separated
        (_, x1, y1), (_, x2, y2) = s.fixed_points
        assert np.hypot(x2 - x1, y2 - y1) > 1.0

    def test_add_point_load(self):
        s = self._two_blocks()
        s.add_point_load(1, 2.5, 0.5, 0.0, -10.0)
        assert s.load_points == [(1, 2.5, 0.5, 0.0, -10.0)]

    def test_copy_independent(self):
        """A system shares no state with its deep copy, which is how the
        tests hand each engine a system of its own."""
        s = self._two_blocks()
        s.fix_block(0)
        s.velocities[1, 0] = 3.0
        c = copy.deepcopy(s)
        c.vertices[0, 0] = 99.0
        c.velocities[1, 0] = 0.0
        assert s.vertices[0, 0] == 0.0
        assert s.velocities[1, 0] == 3.0
        assert c.fixed_points == s.fixed_points

    def test_to_blocks_roundtrip(self):
        s = self._two_blocks()
        blocks = s.to_blocks()
        s2 = BlockSystem(blocks)
        np.testing.assert_allclose(s2.vertices, s.vertices)
