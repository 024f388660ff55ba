import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.polygon import (
    ensure_ccw,
    is_ccw,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    polygon_second_moments,
)
from repro.util.validation import ShapeError

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(n, radius=1.0, center=(0.0, 0.0)):
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)], axis=1
    )


class TestArea:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_cw_negative(self):
        assert polygon_area(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)

    def test_triangle(self):
        tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
        assert polygon_area(tri) == pytest.approx(2.0)

    def test_too_few_vertices(self):
        with pytest.raises(ShapeError):
            polygon_area(np.array([[0, 0], [1, 1]], dtype=float))

    def test_translation_invariant(self):
        shifted = UNIT_SQUARE + np.array([100.0, -3.0])
        assert polygon_area(shifted) == pytest.approx(1.0)


class TestOrientation:
    def test_is_ccw(self):
        assert is_ccw(UNIT_SQUARE)
        assert not is_ccw(UNIT_SQUARE[::-1])

    def test_ensure_ccw_flips(self):
        out = ensure_ccw(UNIT_SQUARE[::-1])
        assert is_ccw(out)

    def test_ensure_ccw_keeps(self):
        out = ensure_ccw(UNIT_SQUARE)
        np.testing.assert_array_equal(out, UNIT_SQUARE)


class TestCentroid:
    def test_square_center(self):
        np.testing.assert_allclose(polygon_centroid(UNIT_SQUARE), [0.5, 0.5])

    def test_triangle(self):
        tri = np.array([[0, 0], [3, 0], [0, 3]], dtype=float)
        np.testing.assert_allclose(polygon_centroid(tri), [1.0, 1.0])

    def test_matches_vertex_mean_for_regular(self):
        poly = regular_polygon(7, center=(2.0, -1.0))
        np.testing.assert_allclose(polygon_centroid(poly), [2.0, -1.0], atol=1e-12)

    def test_degenerate_raises(self):
        degenerate = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        with pytest.raises(ShapeError, match="degenerate"):
            polygon_centroid(degenerate)


class TestSecondMoments:
    def test_unit_square_analytic(self):
        # central moment of a unit square: 1/12 each, Sxy = 0
        sxx, syy, sxy = polygon_second_moments(UNIT_SQUARE)
        assert sxx == pytest.approx(1.0 / 12.0)
        assert syy == pytest.approx(1.0 / 12.0)
        assert sxy == pytest.approx(0.0, abs=1e-14)

    def test_rectangle_analytic(self):
        rect = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
        sxx, syy, sxy = polygon_second_moments(rect)
        # Sxx = w^3 h / 12, Syy = w h^3 / 12
        assert sxx == pytest.approx(4**3 * 2 / 12.0)
        assert syy == pytest.approx(4 * 2**3 / 12.0)
        assert sxy == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariant(self):
        a = polygon_second_moments(UNIT_SQUARE)
        b = polygon_second_moments(UNIT_SQUARE + np.array([17.0, -9.0]))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_orientation_invariant(self):
        a = polygon_second_moments(UNIT_SQUARE)
        b = polygon_second_moments(UNIT_SQUARE[::-1])
        np.testing.assert_allclose(a, b)

    @given(
        st.floats(min_value=0.5, max_value=10.0),
        st.floats(min_value=0.5, max_value=10.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_rectangle(self, w, h, ox, oy):
        rect = np.array(
            [[ox, oy], [ox + w, oy], [ox + w, oy + h], [ox, oy + h]]
        )
        sxx, syy, sxy = polygon_second_moments(rect)
        assert sxx == pytest.approx(w**3 * h / 12.0, rel=1e-6)
        assert syy == pytest.approx(w * h**3 / 12.0, rel=1e-6)
        assert abs(sxy) < 1e-6 * max(1.0, sxx, syy)


class TestAabbAndContainment:
    def test_point_in_polygon(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.0]])
        np.testing.assert_array_equal(
            point_in_polygon(UNIT_SQUARE, pts), [True, False, False]
        )

    def test_point_in_concave_polygon(self):
        concave = np.array(
            [[0, 0], [4, 0], [4, 4], [2, 4], [2, 2], [0, 2]], dtype=float
        )
        pts = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 3.0]])
        np.testing.assert_array_equal(
            point_in_polygon(concave, pts), [True, True, False]
        )
