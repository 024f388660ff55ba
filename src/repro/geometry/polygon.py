"""Simple-polygon kernels: area, centroid, moments, orientation, AABB.

Vertices are ``(n, 2)`` float arrays in order (no repeated closing vertex).
All integral formulas are the exact Green's-theorem identities, so the
DDA stiffness/inertia integrals computed from them are exact for polygons.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import ShapeError, check_array


def _vertices(poly: np.ndarray) -> np.ndarray:
    poly = check_array("polygon", poly, dtype=np.float64, shape=(None, 2), finite=True)
    if poly.shape[0] < 3:
        raise ShapeError(f"polygon needs >= 3 vertices, got {poly.shape[0]}")
    return poly


def next_vertices(p: np.ndarray) -> np.ndarray:
    """Each vertex's successor around the loop, from two slices."""
    return np.concatenate((p[1:], p[:1]))


def shoelace(p: np.ndarray, nxt: np.ndarray) -> float:
    """Signed area of the validated loop ``p`` with successors ``nxt``."""
    return 0.5 * float(np.sum(p[:, 0] * nxt[:, 1] - nxt[:, 0] * p[:, 1]))


def polygon_area(poly: np.ndarray) -> float:
    """Signed area via the shoelace formula (positive for CCW order)."""
    p = _vertices(poly)
    return shoelace(p, next_vertices(p))


def is_ccw(poly: np.ndarray) -> bool:
    """True if the polygon is counter-clockwise (positive signed area)."""
    return polygon_area(poly) > 0.0


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    """Return the polygon with CCW orientation (reversed copy if needed)."""
    p = _vertices(poly)
    return p if shoelace(p, next_vertices(p)) > 0.0 else p[::-1].copy()


def polygon_centroid(poly: np.ndarray) -> np.ndarray:
    """Centroid of a simple polygon (exact).

    Degeneracy is judged scale-relatively: the area must exceed a tiny
    fraction of the squared bounding-box diagonal, so the same sliver
    shape is accepted or rejected identically at any model scale.
    """
    p = _vertices(poly)
    x, y = p[:, 0], p[:, 1]
    xn, yn = next_vertices(x), next_vertices(y)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    span = p.max(axis=0) - p.min(axis=0)
    if abs(a) <= 1e-14 * float(span @ span):
        raise ShapeError("polygon is degenerate (zero area)")
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def polygon_second_moments(poly: np.ndarray) -> tuple[float, float, float]:
    """Second *central* area moments ``(Sxx, Syy, Sxy)``.

    ``Sxx = ∫(x - cx)^2 dA``, ``Syy = ∫(y - cy)^2 dA``,
    ``Sxy = ∫(x - cx)(y - cy) dA`` — the integrals appearing in the DDA
    inertia sub-matrix (Shi 1988, Ch. 2). Sign conventions assume CCW
    orientation; CW polygons are normalised first.
    """
    p = ensure_ccw(poly)
    x, y = p[:, 0], p[:, 1]
    xn, yn = next_vertices(x), next_vertices(y)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    # moments about the origin
    sxx_o = np.sum((x * x + x * xn + xn * xn) * cross) / 12.0
    syy_o = np.sum((y * y + y * yn + yn * yn) * cross) / 12.0
    sxy_o = np.sum((x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y) * cross) / 24.0
    # shift to centroid (parallel-axis)
    return (
        float(sxx_o - a * cx * cx),
        float(syy_o - a * cy * cy),
        float(sxy_o - a * cx * cy),
    )


def point_in_polygon(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even–odd (crossing-number) point-in-polygon test, vectorised.

    Parameters
    ----------
    poly:
        ``(n, 2)`` polygon vertices.
    points:
        ``(m, 2)`` query points.

    Returns
    -------
    ndarray of bool, shape ``(m,)``
        Points exactly on an edge may land on either side (standard
        crossing-number caveat); callers needing boundary semantics should
        test distances explicitly.
    """
    p = _vertices(poly)
    q = check_array("points", points, dtype=np.float64, shape=(None, 2))
    x1, y1 = p[:, 0], p[:, 1]
    x2, y2 = next_vertices(x1), next_vertices(y1)
    px = q[:, 0][:, None]
    py = q[:, 1][:, None]
    # edge straddles the horizontal ray?
    cond = (y1[None, :] > py) != (y2[None, :] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (py - y1[None, :]) / (y2[None, :] - y1[None, :])
        xint = x1[None, :] + t * (x2[None, :] - x1[None, :])
    crossings = np.sum(cond & (px < xint), axis=1)
    return crossings % 2 == 1
