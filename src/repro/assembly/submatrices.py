"""Diagonal 6x6 sub-matrix and load-vector contributions.

All terms follow Shi (1988): each is the exact derivative of a potential
energy term with respect to the block's DOF vector
``d = (u0, v0, r0, ex, ey, gxy)`` about the centroid. Because the
displacement interpolation ``T`` is affine in ``(x, y)``, every area
integral reduces to the block's area and second central moments, which
:mod:`repro.geometry.polygon` computes exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.materials import BlockMaterial
from repro.core.displacement import displacement_matrix
from repro.util.validation import check_array, check_positive


def mass_integral_matrix(
    area: float, moments: tuple[float, float, float] | np.ndarray
) -> np.ndarray:
    """``∫ T^T T dS`` over the block (6x6).

    With the centroid as origin the first moments vanish and only the area
    ``S`` and central second moments ``Sxx = ∫(x-cx)^2``, ``Syy``, ``Sxy``
    survive:

        row/col 0,1 : S on the diagonal
        (2,2) = Sxx + Syy        (2,3) = -Sxy       (2,4) = Sxy
        (2,5) = (Sxx - Syy)/2    (3,3) = Sxx        (3,5) = Sxy/2
        (4,4) = Syy              (4,5) = Sxy/2      (5,5) = (Sxx + Syy)/4

    Multiplying by the density gives the DDA mass matrix.
    """
    check_positive("area", area)
    sxx, syy, sxy = (float(v) for v in moments)
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = area
    m[2, 2] = sxx + syy
    m[2, 3] = m[3, 2] = -sxy
    m[2, 4] = m[4, 2] = sxy
    m[2, 5] = m[5, 2] = (sxx - syy) / 2.0
    m[3, 3] = sxx
    m[3, 5] = m[5, 3] = sxy / 2.0
    m[4, 4] = syy
    m[4, 5] = m[5, 4] = sxy / 2.0
    m[5, 5] = (sxx + syy) / 4.0
    return m


def mass_integral_matrices(
    areas: np.ndarray, moments: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`mass_integral_matrix` for ``n`` blocks at once.

    Parameters
    ----------
    areas:
        ``(n,)`` block areas.
    moments:
        ``(n, 3)`` central second moments ``(Sxx, Syy, Sxy)``.

    Returns
    -------
    ndarray ``(n, 6, 6)``
    """
    areas = check_array("areas", areas, dtype=np.float64, ndim=1)
    n = areas.shape[0]
    moments = check_array("moments", moments, dtype=np.float64, shape=(n, 3))
    sxx, syy, sxy = moments[:, 0], moments[:, 1], moments[:, 2]
    m = np.zeros((n, 6, 6))
    m[:, 0, 0] = m[:, 1, 1] = areas
    m[:, 2, 2] = sxx + syy
    m[:, 2, 3] = m[:, 3, 2] = -sxy
    m[:, 2, 4] = m[:, 4, 2] = sxy
    m[:, 2, 5] = m[:, 5, 2] = (sxx - syy) / 2.0
    m[:, 3, 3] = sxx
    m[:, 3, 5] = m[:, 5, 3] = sxy / 2.0
    m[:, 4, 4] = syy
    m[:, 4, 5] = m[:, 5, 4] = sxy / 2.0
    m[:, 5, 5] = (sxx + syy) / 4.0
    return m


def elastic_submatrix(area: float, material: BlockMaterial) -> np.ndarray:
    """Elastic strain-energy stiffness ``S * E`` in the strain DOFs.

    ``area`` is a scalar; returns the ``(6, 6)`` stiffness block.
    """
    check_positive("area", area)
    k = np.zeros((6, 6))
    k[3:6, 3:6] = area * material.elastic_matrix()
    return k


def body_force_vector(area: float, fx: float, fy: float) -> np.ndarray:
    """Load of a constant body force (e.g. gravity): ``∫ T^T f dS``.

    All inputs are scalars; returns the ``(6,)`` load vector. With the
    centroid as origin all non-translational rows vanish.
    """
    check_positive("area", area)
    f = np.zeros(6)
    f[0] = area * fx
    f[1] = area * fy
    return f


def point_load_vector(
    point: np.ndarray, centroid: np.ndarray, fx: float, fy: float
) -> np.ndarray:
    """Load of a concentrated force at a material point: ``T^T F``.

    ``point`` and ``centroid`` have shape ``(2,)``; returns the ``(6,)``
    load vector.
    """
    t = displacement_matrix(
        check_array("point", point, dtype=np.float64, shape=(2,))[None, :],
        check_array("centroid", centroid, dtype=np.float64, shape=(2,))[None, :],
    )[0]
    return t.T @ np.array([fx, fy])


def fixed_point_contribution(
    point: np.ndarray, centroid: np.ndarray, penalty: float
) -> np.ndarray:
    """Penalty-spring stiffness of a fixed material point: ``p T^T T``.

    ``point`` and ``centroid`` have shape ``(2,)``; returns the
    ``(6, 6)`` stiffness block. The spring's target displacement is zero
    each step, so it contributes no load vector.
    """
    check_positive("penalty", penalty)
    t = displacement_matrix(
        check_array("point", point, dtype=np.float64, shape=(2,))[None, :],
        check_array("centroid", centroid, dtype=np.float64, shape=(2,))[None, :],
    )[0]
    return penalty * (t.T @ t)


def initial_stress_vector(
    area: float, sigma: tuple[float, float, float] | np.ndarray
) -> np.ndarray:
    """Load of a constant initial stress ``(sx, sy, txy)``: ``-S sigma``."""
    check_positive("area", area)
    sx, sy, txy = (float(v) for v in sigma)
    f = np.zeros(6)
    f[3] = -area * sx
    f[4] = -area * sy
    f[5] = -area * txy
    return f
