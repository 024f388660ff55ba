"""Voronoi rubble workloads.

A third workload family beyond the paper's two cases: a rectangular
region tessellated into convex Voronoi cells (a rubble masonry / crushed
rock texture). Unlike the joint-set cutter, cell shapes are irregular and
contact normals isotropic, which stresses the VV classification paths.

Uses the reflection trick: mirroring the seed points across all four
rectangle edges makes every interior cell finite and *exactly* clipped to
the rectangle, avoiding infinite-region handling entirely.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Voronoi

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.geometry.polygon import polygon_area, polygon_centroid
from repro.util.rng import make_rng
from repro.util.validation import check_positive


def voronoi_cells(
    width: float,
    height: float,
    n_cells: int,
    seed: int | np.random.Generator = 0,
    *,
    relax: int = 1,
) -> list[np.ndarray]:
    """Tessellate ``[0, width] x [0, height]`` into ``n_cells`` polygons.

    Parameters
    ----------
    relax:
        Lloyd-relaxation sweeps (0 = raw Poisson points; 1–2 gives the
        even, convex rubble texture real block masses show).

    Returns
    -------
    list of ``(k, 2)`` CCW cell polygons exactly tiling the rectangle.
    """
    check_positive("width", width)
    check_positive("height", height)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    rng = make_rng(seed)
    pts = np.stack(
        [rng.uniform(0, width, n_cells), rng.uniform(0, height, n_cells)],
        axis=1,
    )
    for _ in range(max(0, relax) + 1):
        cells = _cells_for_points(pts, width, height)
        # Lloyd: move each seed to its cell centroid
        pts = np.array([polygon_centroid(c) for c in cells])
    return cells


def _cells_for_points(
    pts: np.ndarray, width: float, height: float
) -> list[np.ndarray]:
    mirrored = [pts]
    for axis, bound in ((0, 0.0), (0, width), (1, 0.0), (1, height)):
        m = pts.copy()
        m[:, axis] = 2 * bound - m[:, axis]
        mirrored.append(m)
    vor = Voronoi(np.concatenate(mirrored))
    cells = []
    for i in range(pts.shape[0]):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:  # pragma: no cover - mirrored
            raise RuntimeError("mirroring failed to close a Voronoi cell")
        poly = vor.vertices[region]
        # ensure CCW
        if polygon_area(poly) < 0:
            poly = poly[::-1]
        # snap boundary vertices exactly onto the rectangle
        poly[:, 0] = np.clip(poly[:, 0], 0.0, width)
        poly[:, 1] = np.clip(poly[:, 1], 0.0, height)
        cells.append(poly.copy())
    return cells


def build_voronoi_rubble(
    *,
    width: float = 20.0,
    height: float = 10.0,
    n_blocks: int = 40,
    seed: int = 0,
    material: BlockMaterial | None = None,
    joint_material: JointMaterial | None = None,
    fix_base_band: float | None = None,
    shrink: float = 0.0,
) -> BlockSystem:
    """A rubble pile: Voronoi cells in a box, base band fixed.

    Parameters
    ----------
    shrink:
        Contract each cell toward its centroid by this fraction, opening
        uniform joints between blocks (0 = perfectly mating).
    """
    if not (0.0 <= shrink < 0.5):
        raise ValueError(f"shrink must be in [0, 0.5), got {shrink}")
    cells = voronoi_cells(width, height, n_blocks, seed)
    mat = material or BlockMaterial()
    blocks = []
    for poly in cells:
        if shrink > 0.0:
            c = polygon_centroid(poly)
            poly = c + (poly - c) * (1.0 - shrink)
        blocks.append(Block(poly, mat))
    system = BlockSystem(blocks, joint_material)
    band = fix_base_band if fix_base_band is not None else height / max(
        4.0, n_blocks**0.5
    )
    fixed_any = False
    for i in range(system.n_blocks):
        if system.centroids[i, 1] < band:
            system.fix_block(i)
            fixed_any = True
    if not fixed_any:
        system.fix_block(int(np.argmin(system.centroids[:, 1])))
    return system
