import numpy as np
import pytest

from repro.meshing.slope_models import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
)


class TestBrickWall:
    def test_block_count(self):
        s = build_brick_wall(3, 4)
        # 3 rows: row0 4 bricks, row1 offset -> 5 pieces, row2 4 => base+13
        assert s.n_blocks >= 3 * 4  # at least rows*cols pieces
        assert len(s.fixed_points) == 2  # base fixed

    def test_no_base(self):
        s = build_brick_wall(2, 2, base=False)
        assert len(s.fixed_points) == 0

    def test_no_offset_exact_count(self):
        s = build_brick_wall(2, 3, offset_courses=False, base=False)
        assert s.n_blocks == 6

    def test_bricks_tile_wall_area(self):
        s = build_brick_wall(2, 3, base=False)
        assert s.areas.sum() == pytest.approx(2 * 3 * 1.0 * 0.5)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_brick_wall(0, 3)


class TestSlopeModel:
    def test_builds_and_is_deterministic(self):
        a = build_slope_model(joint_spacing=8.0, seed=1)
        b = build_slope_model(joint_spacing=8.0, seed=1)
        assert a.n_blocks == b.n_blocks
        np.testing.assert_allclose(a.vertices, b.vertices)

    def test_block_count_scales_with_spacing(self):
        coarse = build_slope_model(joint_spacing=12.0, seed=0)
        fine = build_slope_model(joint_spacing=6.0, seed=0)
        assert fine.n_blocks > coarse.n_blocks

    def test_base_is_fixed(self):
        s = build_slope_model(joint_spacing=8.0, seed=0)
        assert len(s.fixed_points) >= 2

    def test_area_close_to_domain(self):
        import math

        s = build_slope_model(
            width=80, height=40, slope_angle_deg=55, toe_height=4,
            joint_spacing=8.0, seed=0,
        )
        run = (40 - 4) / math.tan(math.radians(55))
        domain_area = 80 * 40 - 0.5 * run * (40 - 4) - 0  # trapezoid-ish
        # blocks tile the domain: areas sum to the domain area
        assert s.areas.sum() == pytest.approx(domain_area, rel=0.02)

    def test_infeasible_geometry_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            build_slope_model(width=5.0, height=40.0, slope_angle_deg=30.0)


class TestFallingRocksModel:
    def test_counts(self):
        s = build_falling_rocks_model(n_rock_rows=2, n_rock_cols=3)
        assert s.n_blocks == 2 + 6
        assert len(s.fixed_points) == 4  # two fixed blocks x 2 points

    def test_rocks_above_slope_face(self):
        import math

        s = build_falling_rocks_model(
            slope_height=70, slope_angle_deg=42, n_rock_rows=2, n_rock_cols=3
        )
        theta = math.radians(42)
        # face line: from (0, H) to (run, 0): y = H - tan(theta) x
        for i in range(2, s.n_blocks):
            cx, cy = s.centroids[i]
            assert cy > 70 - math.tan(theta) * cx - 1e-6

    def test_rock_areas(self):
        s = build_falling_rocks_model(rock_size=2.0, n_rock_rows=1, n_rock_cols=2)
        np.testing.assert_allclose(s.areas[2:], 4.0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            build_falling_rocks_model(n_rock_rows=0)
