"""Ready-to-run block systems mirroring the paper's two cases.

* :func:`build_slope_model` — a Case-1-like static slope-stability model:
  a slope cross-section cut by two statistical joint sets into a blocky
  rock mass, with the base band fixed. Block count scales with the joint
  spacing, so the paper's 4361-block model and laptop-scale test models
  come from the same generator.
* :func:`build_falling_rocks_model` — a Case-2-like dynamic model: loose
  square rocks resting near the crest of a fixed slope wedge (the paper's
  700 m slope with 1683 2x2 m rocks, at any scale).
* :func:`build_brick_wall` — a deterministic brick-wall system with
  predictable block/contact counts, used throughout the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.meshing.block_cutter import cut_blocks
from repro.meshing.joints import JointSet, generate_joint_set
from repro.util.rng import make_rng
from repro.util.validation import check_positive


def build_brick_wall(
    rows: int,
    cols: int,
    *,
    brick_w: float = 1.0,
    brick_h: float = 0.5,
    offset_courses: bool = True,
    base: bool = True,
    material: BlockMaterial | None = None,
    joint_material: JointMaterial | None = None,
) -> BlockSystem:
    """A running-bond brick wall on an (optional) fixed base slab.

    Produces exactly ``rows * cols + base`` blocks with a predictable
    contact topology — the regression workhorse of the test suite.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    check_positive("brick_w", brick_w)
    check_positive("brick_h", brick_h)
    mat = material or BlockMaterial()
    blocks: list[Block] = []
    width = cols * brick_w
    if base:
        blocks.append(
            Block(
                np.array(
                    [
                        [-brick_w, -brick_h],
                        [width + brick_w, -brick_h],
                        [width + brick_w, 0.0],
                        [-brick_w, 0.0],
                    ]
                ),
                mat,
            )
        )
    for r in range(rows):
        shift = (brick_w / 2.0) if (offset_courses and r % 2 == 1) else 0.0
        y0, y1 = r * brick_h, (r + 1) * brick_h
        edges = [0.0]
        x = shift if shift > 0 else brick_w
        while x < width - 1e-12:
            edges.append(x)
            x += brick_w
        edges.append(width)
        for x0, x1 in zip(edges[:-1], edges[1:]):
            if x1 - x0 < 1e-9:
                continue
            blocks.append(
                Block(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]), mat)
            )
    system = BlockSystem(blocks, joint_material)
    if base:
        system.fix_block(0)
    return system


def _slope_domain(width: float, height: float, slope_angle_deg: float,
                  toe_height: float) -> np.ndarray:
    """CCW cross-section polygon of an embankment slope."""
    run = (height - toe_height) / math.tan(math.radians(slope_angle_deg))
    crest_x = width - run
    if crest_x <= 0:
        raise ValueError(
            "slope geometry infeasible: face run exceeds model width "
            f"(width={width}, height={height}, angle={slope_angle_deg})"
        )
    return np.array(
        [
            [0.0, 0.0],
            [width, 0.0],
            [width, toe_height],
            [crest_x, height],
            [0.0, height],
        ]
    )


def build_slope_model(
    *,
    width: float = 80.0,
    height: float = 40.0,
    slope_angle_deg: float = 55.0,
    joint_spacing: float = 6.0,
    toe_height: float = 4.0,
    seed: int = 0,
    material: BlockMaterial | None = None,
    joint_material: JointMaterial | None = None,
    fix_base_band: float | None = None,
) -> BlockSystem:
    """Case-1-like static slope-stability model.

    The cross-section is cut by two joint sets — one dipping out of the
    slope face, one roughly perpendicular — and blocks whose centroid lies
    in the base band are fixed (the far-field boundary).
    """
    check_positive("joint_spacing", joint_spacing)
    domain = _slope_domain(width, height, slope_angle_deg, toe_height)
    bounds = np.array([0.0, 0.0, width, height])
    rng = make_rng(seed)
    set1 = JointSet(
        dip_deg=slope_angle_deg - 90.0,
        spacing=joint_spacing,
        spacing_cov=0.12,
    )
    set2 = JointSet(
        dip_deg=slope_angle_deg - 180.0 + 10.0,
        spacing=joint_spacing * 1.2,
        spacing_cov=0.12,
    )
    joints = np.concatenate(
        [
            generate_joint_set(set1, bounds, rng),
            generate_joint_set(set2, bounds, rng),
        ]
    )
    polys = cut_blocks(domain, joints, min_area=joint_spacing**2 * 1e-4)
    mat = material or BlockMaterial()
    system = BlockSystem([Block(p, mat) for p in polys], joint_material)
    band = fix_base_band if fix_base_band is not None else joint_spacing * 0.9
    fixed_any = False
    for i in range(system.n_blocks):
        if system.centroids[i, 1] < band:
            system.fix_block(i)
            fixed_any = True
    if not fixed_any:
        # always anchor something: the lowest block
        system.fix_block(int(np.argmin(system.centroids[:, 1])))
    return system


def build_falling_rocks_model(
    *,
    slope_height: float = 70.0,
    slope_angle_deg: float = 42.0,
    rock_size: float = 2.0,
    n_rock_rows: int = 4,
    n_rock_cols: int = 8,
    gap: float = 0.05,
    material: BlockMaterial | None = None,
    joint_material: JointMaterial | None = None,
) -> BlockSystem:
    """Case-2-like dynamic falling-rocks model.

    A fixed slope wedge plus a fixed run-out slab, with a grid of loose
    square rocks resting just above the upper part of the slope face.
    Scaled to the paper's Case 2 with ``slope_height=700``,
    ``rock_size=2`` and ``n_rock_rows * n_rock_cols = 1683``.
    """
    check_positive("slope_height", slope_height)
    check_positive("rock_size", rock_size)
    if n_rock_rows < 1 or n_rock_cols < 1:
        raise ValueError("rock grid must be at least 1x1")
    theta = math.radians(slope_angle_deg)
    run = slope_height / math.tan(theta)
    mat = material or BlockMaterial()
    blocks: list[Block] = []
    # fixed slope wedge: face from crest (0, H) down to toe (run, 0)
    blocks.append(
        Block(
            np.array([[0.0, 0.0], [run, 0.0], [0.0, slope_height]]), mat
        )
    )
    # fixed run-out slab
    runout = run + slope_height  # generous flat ground
    blocks.append(
        Block(
            np.array(
                [
                    [run, 0.0],
                    [runout, 0.0],
                    [runout, -rock_size],
                    [0, -rock_size],
                    [0, 0],
                ]
            )[
                ::-1
            ],  # keep CCW after construction normalisation
            mat,
        )
    )
    # loose rocks: axis-aligned squares stacked against the slope face,
    # in face-aligned rows starting just below the crest
    face_dir = np.array([math.cos(-theta), math.sin(-theta)])  # downslope
    face_normal = np.array([math.sin(theta), math.cos(theta)])  # off the face
    crest = np.array([0.0, slope_height])
    s = rock_size
    half = s / 2.0
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    for r in range(n_rock_rows):
        for c in range(n_rock_cols):
            along = (c + 0.5) * (s + gap) + s
            off = (r + 0.5) * (s + gap) + gap
            center = crest + along * face_dir + off * face_normal
            # build each square directly in the face frame (sides parallel
            # to the slope face), so the bottom edge sits flat above it
            square = np.array(
                [center + a * face_dir + b * face_normal for a, b in corners]
            )
            blocks.append(Block(square, mat))
    system = BlockSystem(blocks, joint_material)
    system.fix_block(0)
    system.fix_block(1)
    return system
