"""Block and BlockSystem: the struct-of-arrays model the kernels run on.

A :class:`Block` is a convex-or-simple polygon with an elastic material.
A :class:`BlockSystem` stores all blocks of a model in flattened arrays
(concatenated vertices + offsets), which is exactly the layout the GPU
pipeline wants: every vectorised kernel indexes these arrays directly, and
the data-updating module rewrites them in place each time step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.materials import BlockMaterial, JointMaterial
from repro.geometry.polygon import (
    next_vertices,
    polygon_aabb,
    polygon_area,
    polygon_centroid,
    polygon_second_moments,
    shoelace,
)
from repro.geometry.tolerances import bbox_diagonal
from repro.primitives.scatter import segment_max, segment_min, segment_sum
from repro.util.validation import ShapeError, check_array

#: Degrees of freedom per block: (u0, v0, r0, ex, ey, gxy).
DOF = 6


@dataclass
class Block:
    """One polygonal block.

    Vertices are normalised to CCW order at construction; the centroid,
    area and second moments used by the stiffness integrals are computed
    eagerly (they are needed every time step).
    """

    vertices: np.ndarray
    material: BlockMaterial = field(default_factory=BlockMaterial)

    def __post_init__(self) -> None:
        # one pass: one validation, one successor copy for the edge gaps
        # and the shoelace, one signed area (recomputed only if reversed)
        v = check_array("vertices", self.vertices, dtype=np.float64,
                        shape=(None, 2), finite=True)
        if v.shape[0] >= 2:
            # drop coincident consecutive vertices (zero-length edges),
            # scale-relatively: a millimetre block is cleaned like a km one
            span = v.max(axis=0) - v.min(axis=0)
            eps = 1e-12 * bbox_diagonal(span, v)
            nxt = next_vertices(v)
            gap = np.hypot(*(nxt - v).T)  # gap[i]: edge i -> i + 1
            if not gap.min() > eps:
                # vertex i stays when the edge arriving at it has length
                keep = np.concatenate((gap[-1:], gap[:-1])) > eps
                if keep.sum() < 3:
                    raise ShapeError("block polygon collapses to fewer "
                                     "than 3 distinct vertices")
                v = v[keep]
                span, nxt = v.max(axis=0) - v.min(axis=0), next_vertices(v)
        if v.shape[0] < 3:
            raise ShapeError(f"polygon needs >= 3 vertices, got {v.shape[0]}")
        area = shoelace(v, nxt)
        if not area > 0.0:
            v = v[::-1].copy()
            area = shoelace(v, next_vertices(v))
        self.vertices = v
        if abs(area) < max(1e-14, 1e-12 * float(span @ span)):
            raise ShapeError("block polygon has (near-)zero area")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        return polygon_centroid(self.vertices)

    @property
    def second_moments(self) -> tuple[float, float, float]:
        """Central second moments ``(Sxx, Syy, Sxy)``."""
        return polygon_second_moments(self.vertices)

    @property
    def aabb(self) -> np.ndarray:
        return polygon_aabb(self.vertices)


class BlockSystem:
    """All blocks of a model in flattened (GPU-friendly) arrays.

    Attributes
    ----------
    vertices:
        ``(V, 2)`` concatenated block vertices (current geometry; the
        data-updating module rewrites these every step).
    offsets:
        ``(n + 1,)`` vertex offsets; block ``i`` owns
        ``vertices[offsets[i]:offsets[i+1]]``, CCW.
    materials:
        Distinct :class:`BlockMaterial` records.
    material_id:
        ``(n,)`` index into ``materials`` per block.
    joint_material:
        The :class:`JointMaterial` governing every contact (a per-pair
        map can be layered on top; the reproduction uses one default as
        the slope generators assign statistically identical joints).
    velocities:
        ``(n, 6)`` previous-step DOF velocities (the inertia load).
    fixed_points / load_points:
        Boundary conditions: ``(block, x, y)`` penalty-fixed material
        points and ``(block, x, y, fx, fy)`` point loads. Fixed/load
        points are material points — the data updater moves them with
        their block.
    """

    def __init__(
        self,
        blocks: list[Block],
        joint_material: JointMaterial | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("BlockSystem needs at least one block")
        self.joint_material = joint_material or JointMaterial()
        counts = np.array([b.n_vertices for b in blocks], dtype=np.int64)
        self.offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.vertices = np.concatenate([b.vertices for b in blocks]).astype(
            np.float64
        )
        # dedupe materials by identity of the frozen dataclass value
        self.materials: list[BlockMaterial] = []
        mat_index: dict[BlockMaterial, int] = {}
        self.material_id = np.zeros(len(blocks), dtype=np.int64)
        # lint: host-ok[DDA001] -- construction-time loop over the input polygon list
        for i, b in enumerate(blocks):
            if b.material not in mat_index:
                mat_index[b.material] = len(self.materials)
                self.materials.append(b.material)
            self.material_id[i] = mat_index[b.material]
        self.velocities = np.zeros((len(blocks), DOF))
        # accumulated block stresses (sx, sy, txy) — DDA's stress memory,
        # applied each step as the initial-stress load so elastic strain
        # does not ratchet across steps
        self.stresses = np.zeros((len(blocks), 3))
        self.fixed_points: list[tuple[int, float, float]] = []
        # original anchor positions of the fixed points: the penalty
        # spring restores the (moving) material point toward its anchor,
        # so a fixed block cannot ratchet away one deflection per step
        self.fixed_anchors: list[tuple[float, float]] = []
        self.load_points: list[tuple[int, float, float, float, float]] = []
        self._refresh_cache()

    # ------------------------------------------------------------------
    # derived per-block quantities (recomputed after each geometry update)
    # ------------------------------------------------------------------
    def _refresh_cache(self) -> None:
        """Recompute per-block areas/centroids/moments/AABBs, vectorised.

        One pass over the flattened vertex arrays using the same
        Green's-theorem identities as :mod:`repro.geometry.polygon`
        (verified against them in the tests); runs every time step, so
        the per-block Python loop it replaces was a measured hot spot.
        """
        v = self.vertices
        # next vertex within each block (CCW roll)
        nxt = np.arange(v.shape[0]) + 1
        nxt[self.offsets[1:] - 1] = self.offsets[:-1]
        x, y = v[:, 0], v[:, 1]
        xn, yn = v[nxt, 0], v[nxt, 1]
        cross = x * yn - xn * y
        starts = self.offsets[:-1]
        area = 0.5 * segment_sum(cross, starts)
        cx = segment_sum((x + xn) * cross, starts) / (6.0 * area)
        cy = segment_sum((y + yn) * cross, starts) / (6.0 * area)
        sxx_o = segment_sum((x * x + x * xn + xn * xn) * cross, starts) / 12.0
        syy_o = segment_sum((y * y + y * yn + yn * yn) * cross, starts) / 12.0
        sxy_o = segment_sum(
            (x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y) * cross, starts
        ) / 24.0
        self.areas = area
        self.centroids = np.stack([cx, cy], axis=1)
        self.moments = np.stack(
            [
                sxx_o - area * cx * cx,
                syy_o - area * cy * cy,
                sxy_o - area * cx * cy,
            ],
            axis=1,
        )
        self.aabbs = np.stack(
            [
                segment_min(x, starts),
                segment_min(y, starts),
                segment_max(x, starts),
                segment_max(y, starts),
            ],
            axis=1,
        )

    @property
    def n_blocks(self) -> int:
        return self.offsets.size - 1

    @property
    def n_dof(self) -> int:
        return self.n_blocks * DOF

    def block_vertices(self, i: int) -> np.ndarray:
        """View of block ``i``'s vertices (CCW)."""
        return self.vertices[self.offsets[i] : self.offsets[i + 1]]

    def block_of_vertex(self) -> np.ndarray:
        """``(V,)`` owning block index of each flattened vertex."""
        return np.repeat(
            np.arange(self.n_blocks), np.diff(self.offsets)
        )

    def material_of(self, i: int) -> BlockMaterial:
        return self.materials[self.material_id[i]]

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All directed boundary edges.

        Returns ``(a, b, block)``: edge start points, end points, and the
        owning block index. Edge ``k`` of block ``i`` runs CCW, so the
        block's material lies to its left.
        """
        nxt = np.arange(self.vertices.shape[0]) + 1
        nxt[self.offsets[1:] - 1] = self.offsets[:-1]
        return self.vertices, self.vertices[nxt], self.block_of_vertex()

    # ------------------------------------------------------------------
    # boundary conditions
    # ------------------------------------------------------------------
    def fix_point(self, block: int, x: float, y: float) -> None:
        """Pin the material point ``(x, y)`` of ``block`` with a penalty spring."""
        self._check_block(block)
        self.fixed_points.append((block, float(x), float(y)))
        self.fixed_anchors.append((float(x), float(y)))

    def fix_block(self, block: int) -> None:
        """Pin a block by fixing two well-separated boundary points.

        Two fixed points remove all rigid-body freedom of a block (the
        strain DOFs remain, resisted by the elastic stiffness).
        """
        self._check_block(block)
        poly = self.block_vertices(block)
        d = np.linalg.norm(poly[:, None, :] - poly[None, :, :], axis=2)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        self.fix_point(block, *poly[i])
        self.fix_point(block, *poly[j])

    def add_point_load(
        self, block: int, x: float, y: float, fx: float, fy: float
    ) -> None:
        """Apply a constant point force at material point ``(x, y)``."""
        self._check_block(block)
        self.load_points.append((block, float(x), float(y), float(fx), float(fy)))

    def _check_block(self, block: int) -> None:
        if not (0 <= block < self.n_blocks):
            raise IndexError(
                f"block {block} out of range [0, {self.n_blocks})"
            )

    # ------------------------------------------------------------------
    # conversion helpers
    # ------------------------------------------------------------------
    def to_blocks(self) -> list[Block]:
        """Materialise standalone :class:`Block` objects (current geometry)."""
        return [
            Block(self.block_vertices(i).copy(), self.material_of(i))
            for i in range(self.n_blocks)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockSystem(n_blocks={self.n_blocks}, "
            f"n_vertices={self.vertices.shape[0]}, "
            f"materials={len(self.materials)})"
        )
