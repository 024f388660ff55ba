"""The one-pass ``Block`` validation equals its reference, bit for bit.

``Block.__post_init__`` validates once, takes the edge gaps and the
shoelace from one successor copy and computes one signed area. Every
decision must still be :func:`block_oracle`'s: which vertices are
dropped, whether the loop is reversed, whether ``vertices`` aliases the
caller's array, and which ``ShapeError`` is raised with which message.
The builders' output is pinned by hash on top, so a model built at the
floor is the model that was built before.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from block_oracle import block_oracle
from repro import JointMaterial
from repro.core.blocks import Block
from repro.meshing import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
    build_voronoi_rubble,
)
from repro.util.validation import ShapeError

SCALES = (1e-3, 1e-1, 1.0, 1e3, 1e6)


def outcome(make, arr):
    """What ``make(arr)`` keeps, bit for bit, or the error it raises."""
    try:
        out = make(arr)
    except ShapeError as err:
        return ("error", str(err))
    return ("ok", out.shape, out.dtype, out.view(np.int64).tobytes(),
            out is arr)


def assert_same_as_oracle(arr):
    new = outcome(lambda a: Block(a).vertices, arr)
    assert new == outcome(block_oracle, arr)
    return new


@st.composite
def loops(draw):
    """CW and CCW loops of 3–12 vertices at scales 1e-3 to 1e6, with
    repeated and near-repeated consecutive vertices (the wrap-around
    pair too), collinear runs, slivers at the area threshold, and
    int / float32 input."""
    n = draw(st.integers(3, 12))
    scale = draw(st.sampled_from(SCALES))
    kind = draw(st.sampled_from(
        ["convex", "random", "collinear", "sliver", "collapse"]
    ))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n,
                               max_size=2 * n)))
    if kind == "convex":
        angle = np.sort(u[:n]) * 2.0 * np.pi
        radius = 0.5 + 0.5 * u[n:]
        v = np.stack([radius * np.cos(angle), radius * np.sin(angle)], 1)
    elif kind == "random":
        v = u.reshape(n, 2) - 0.5
    elif kind == "collinear":
        t = np.sort(u[:n])
        v = np.stack([t, 0.5 * t], 1)
        # a collinear run with (or without) one apex off the line
        v[0, 1] += draw(st.sampled_from([0.0, 1e-13, 1e-6, 0.3]))
    elif kind == "sliver":
        # a unit-base triangle (plus points on its base) whose scaled
        # area sits at factor x max(1e-14, 1e-12 * span @ span)
        factor = draw(st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]))
        height = 2.0 * factor * max(1e-14 / scale**2, 1e-12)
        base = np.sort(u[: max(n - 1, 2)])
        v = np.vstack([np.stack([base, np.zeros_like(base)], 1),
                       [[0.5, height]]])
    else:
        # a loop over at most two distinct points
        v = np.where(u[:n, None] < 0.5, [[0.0, 0.0]], [[u[n], u[n + 1]]])
    v = v * scale + draw(st.sampled_from([0.0, 3.0, -250.0])) * scale
    if draw(st.booleans()):
        v = v[::-1]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, v.shape[0] - 1))
        # an exact repeat, or a near one either side of the 1e-12 cut
        nudge = draw(st.sampled_from([0.0, 0.5e-12, 2e-12, 1e-9]))
        span = v.max(axis=0) - v.min(axis=0)
        twin = v[i] + nudge * float(np.hypot(*span))
        v = np.insert(v, i + 1, twin, axis=0)
    if draw(st.booleans()):
        v = np.vstack([v, v[:1]])  # closing vertex repeats the first
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float32,
                                  np.int64]))
    if dtype is np.int64:
        return np.rint(v).astype(np.int64)
    return np.ascontiguousarray(v, dtype=dtype)


class TestBlockOracle:
    @seed(34)
    @settings(max_examples=600, deadline=None)
    @given(loops())
    def test_equals_reference(self, arr):
        assert_same_as_oracle(arr)

    @pytest.mark.parametrize("arr", [
        np.zeros((0, 2)),
        np.array([[1.0, 2.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        np.full((5, 2), 7.0),
        np.zeros((4, 2)),
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([0.0, 1.0, 2.0]),
        [[0, 0], [1, 0], [0, 1]],
        np.array([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]]),
        # a signed area of inf - inf: NaN, which orients as CW
        np.array([[1e300, 2e300], [2e300, 1e300], [0.0, 0.0]]),
        # a twin exactly at the 1e-12 cut of the scale sqrt(2)
        np.array([[0.0, 0.0], [1e-12 * 2.0**0.5, 0.0], [1.0, 0.0],
                  [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])[:, ::-1],
    ], ids=lambda a: f"{np.shape(a)}")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_edge_cases_equal_reference(self, arr):
        assert_same_as_oracle(arr)

    def test_aliasing_is_the_reference(self):
        ccw = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert assert_same_as_oracle(ccw)[-1] is True
        assert assert_same_as_oracle(ccw[::-1].copy())[-1] is False
        assert assert_same_as_oracle(ccw.astype(np.float32))[-1] is False


def digest(system) -> str:
    h = hashlib.sha256(system.vertices.tobytes())
    h.update(system.offsets.tobytes())
    return h.hexdigest()


# (builder call, SHA-256 of vertices + offsets before the one-pass Block)
BUILDERS = {
    "slope_1.5": (
        lambda: build_slope_model(joint_spacing=1.5, seed=0),
        "d70f2fa1bb19cea32379efd4475de5d000bc334577bf82fa6661a52cabe838f0",
    ),
    "slope_3.0": (
        lambda: build_slope_model(joint_spacing=3.0, seed=0),
        "b29f20714e698a2578e0d4bd508d3a056a253e9d00b4f3c994508bb211886223",
    ),
    "slope_6.0": (
        lambda: build_slope_model(joint_spacing=6.0, seed=0),
        "de11424bb0008555bb025a2cae3baf393853c8add036ddb1f3bab7dec1ffb7c5",
    ),
    # the falling-rocks scene of the benchmark's rocks_dynamic workload
    "rocks": (
        lambda: build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=20, n_rock_cols=40,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        "fe644ed8b666c079c8b6a65f21bb0d6a27bec1b9af33ab5b9a4a8dd946a43fe0",
    ),
    "wall": (
        lambda: build_brick_wall(rows=4, cols=6),
        "99016ee44362e8a5f8312726750125a7bb628094162d83bef424c1c55b412430",
    ),
    "rubble": (
        lambda: build_voronoi_rubble(seed=0),
        "341888c2054ecc452e1ea5b34aaf18e1e5f7be910c11acc560436fe51bcf1ee8",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_output_is_pinned(name):
    build, expected = BUILDERS[name]
    system = build()
    assert digest(system) == expected
    # renumbering rebuilds every Block from the built vertices
    assert digest(type(system)(system.to_blocks())) == expected
