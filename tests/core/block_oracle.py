"""Reference implementation the polygon validation is held to.

:func:`block_oracle` is ``Block.__post_init__`` as it stood before the
one-pass validation (commit 0c54230), with the polygon helpers it called
then (``np.roll`` shoelace, validated twice). No product code runs it; it
is kept, unedited but for the names, as the independent implementation
``tests/core/test_block_oracle.py`` compares the one-pass ``Block`` with,
bit for bit: the vertices it keeps, whether it reverses them, whether
they alias the caller's array, and the ``ShapeError`` it raises.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.tolerances import Tolerances
from repro.util.validation import ShapeError, check_array


def _vertices(poly: np.ndarray) -> np.ndarray:
    poly = check_array("polygon", poly, dtype=np.float64, shape=(None, 2), finite=True)
    if poly.shape[0] < 3:
        raise ShapeError(f"polygon needs >= 3 vertices, got {poly.shape[0]}")
    return poly


def polygon_area(poly: np.ndarray) -> float:
    """Signed area via the shoelace formula (positive for CCW order)."""
    p = _vertices(poly)
    x, y = p[:, 0], p[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def is_ccw(poly: np.ndarray) -> bool:
    """True if the polygon is counter-clockwise (positive signed area)."""
    return polygon_area(poly) > 0.0


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    """Return the polygon with CCW orientation (reversed copy if needed)."""
    p = _vertices(poly)
    return p if is_ccw(p) else p[::-1].copy()


def block_oracle(vertices) -> np.ndarray:
    """The vertices a ``Block`` built from ``vertices`` keeps, or the
    ``ShapeError`` it raises."""
    v = check_array("vertices", vertices, dtype=np.float64,
                    shape=(None, 2), finite=True)
    # drop coincident consecutive vertices (zero-length edges) before
    # orientation/area: scale-relative, so a millimetre-scale block is
    # cleaned exactly like a kilometre-scale one
    if v.shape[0] >= 2:
        tol = Tolerances.from_points(v, rel=1e-12)
        gap = np.hypot(*(v - np.roll(v, 1, axis=0)).T)
        keep = gap > tol.eps_length
        if not keep.all():
            if keep.sum() < 3:
                raise ShapeError(
                    "block polygon collapses to fewer than 3 distinct "
                    "vertices"
                )
            v = v[keep]
    out = ensure_ccw(v)
    span = out.max(axis=0) - out.min(axis=0)
    if abs(polygon_area(out)) < max(
        1e-14, 1e-12 * float(span @ span)
    ):
        raise ShapeError("block polygon has (near-)zero area")
    return out
