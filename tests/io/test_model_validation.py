"""Load-time model validation: typed rejection of malformed inputs."""

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.io.model_io import load_system, save_system
from repro.util.validation import (
    ModelValidationError,
    non_simple_blocks,
    validate_model_arrays,
)

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def two_blocks() -> BlockSystem:
    return BlockSystem([Block(SQ), Block(SQ + np.array([2.0, 0.0]))])


def arrays(*polys):
    vertices = np.concatenate(polys)
    offsets = np.zeros(len(polys) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in polys], out=offsets[1:])
    return vertices, offsets


# ----------------------------------------------------------------------
# validate_model_arrays
# ----------------------------------------------------------------------

def test_valid_arrays_pass():
    v, o = arrays(SQ, SQ + np.array([2.0, 0.0]))
    validate_model_arrays(v, o)


def test_nonfinite_vertex_names_block():
    poly = SQ + np.array([2.0, 0.0])
    poly = poly.copy()
    poly[2, 1] = np.nan
    v, o = arrays(SQ, poly)
    with pytest.raises(ModelValidationError, match="non-finite") as exc:
        validate_model_arrays(v, o)
    assert exc.value.block == 1


def test_too_few_vertices():
    v, o = arrays(SQ, SQ[:2])
    with pytest.raises(ModelValidationError, match="need >= 3") as exc:
        validate_model_arrays(v, o)
    assert exc.value.block == 1


def test_zero_area_polygon():
    sliver = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])  # collinear
    v, o = arrays(SQ, sliver)
    with pytest.raises(ModelValidationError, match="zero area") as exc:
        validate_model_arrays(v, o)
    assert exc.value.block == 1


def test_zero_area_is_scale_relative():
    # the same collinear sliver must be rejected at any model scale
    for s in (1e-6, 1.0, 1e6):
        sliver = s * np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        v, o = arrays(s * SQ, sliver)
        with pytest.raises(ModelValidationError, match="zero area"):
            validate_model_arrays(v, o)


def test_self_intersecting_polygon():
    bowtie = np.array(
        [[0.0, 5.0], [2.0, 5.0], [0.5, 6.0], [1.5, 6.0]]
    )  # positive signed area, crossing edges
    v, o = arrays(SQ, bowtie)
    with pytest.raises(ModelValidationError, match="non-simple") as exc:
        validate_model_arrays(v, o)
    assert exc.value.block == 1


def polygon_is_simple(poly, eps_area):
    """The per-block scan :func:`non_simple_blocks` replaced, kept as its
    oracle: every non-adjacent edge pair, one Python test each."""

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (q[0] - o[0]) * (p[1] - o[1])

    n, a, b = poly.shape[0], poly, np.roll(poly, -1, axis=0)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent through the wrap-around edge
            d = (cross(a[j], b[j], a[i]), cross(a[j], b[j], b[i]),
                 cross(a[i], b[i], a[j]), cross(a[i], b[i], b[j]))
            if min(map(abs, d)) <= eps_area:
                continue
            if (d[0] > 0) != (d[1] > 0) and (d[2] > 0) != (d[3] > 0):
                return False
    return True


@pytest.mark.parametrize("seed", range(10))
def test_vectorised_simplicity_scan_equals_the_per_block_one(seed):
    """Random star-shaped (simple) and shuffled (mostly crossing)
    polygons of 3 to 12 vertices, some snapped to a grid so crossings
    graze endpoints: the mask is the per-block verdict, block by block."""
    rng = np.random.default_rng(seed)
    polys = []
    for k in range(60):
        c = int(rng.integers(3, 13))
        angle = np.sort(rng.uniform(0, 2 * np.pi, c))
        if k % 2:
            angle = rng.permutation(angle)
        poly = rng.uniform(0.5, 2.0, (c, 1)) * np.stack(
            [np.cos(angle), np.sin(angle)], axis=1
        )
        if k % 3 == 0:
            poly = np.round(poly * 4) / 4
        polys.append(poly + rng.uniform(-50, 50, 2))
    vertices, offsets = arrays(*polys)
    eps_area = 1e-9
    want = [not polygon_is_simple(p, eps_area) for p in polys]
    got = non_simple_blocks(vertices, offsets, eps_area=eps_area)
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def test_simplicity_scan_of_a_large_polygon_runs_in_chunks():
    """A 600-vertex circle (179 100 edge pairs, six chunks) is
    simple; swapping two vertices makes it cross."""
    angle = np.linspace(0.0, 2 * np.pi, 600, endpoint=False)
    circle = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    crossed = circle.copy()
    crossed[[10, 300]] = crossed[[300, 10]]
    vertices, offsets = arrays(circle, crossed + 5.0)
    got = non_simple_blocks(vertices, offsets, eps_area=1e-12)
    assert got.tolist() == [False, True]


def test_duplicate_blocks():
    v, o = arrays(SQ, SQ + np.array([2.0, 0.0]), SQ.copy())
    with pytest.raises(ModelValidationError, match="duplicate") as exc:
        validate_model_arrays(v, o)
    assert exc.value.block == 2
    assert "block 0" in str(exc.value)


def test_duplicate_detection_is_rotation_invariant():
    rolled = np.roll(SQ, 1, axis=0)  # same polygon, different start vertex
    v, o = arrays(SQ, rolled)
    with pytest.raises(ModelValidationError, match="duplicate"):
        validate_model_arrays(v, o)


def test_bad_offsets():
    v, _ = arrays(SQ)
    with pytest.raises(ModelValidationError, match="start at 0"):
        validate_model_arrays(v, np.array([1, 4]))
    with pytest.raises(ModelValidationError, match="empty vertex range"):
        validate_model_arrays(v, np.array([0, 4, 4]))
    with pytest.raises(ModelValidationError, match="offsets end"):
        validate_model_arrays(v, np.array([0, 3]))


def test_material_id_bounds():
    v, o = arrays(SQ, SQ + np.array([2.0, 0.0]))
    validate_model_arrays(v, o, np.array([0, 1]), n_materials=2)
    with pytest.raises(ModelValidationError, match="out of range") as exc:
        validate_model_arrays(v, o, np.array([0, 2]), n_materials=2)
    assert exc.value.block == 1
    with pytest.raises(ModelValidationError, match="shape"):
        validate_model_arrays(v, o, np.array([0]), n_materials=2)


def test_boundary_condition_indices():
    v, o = arrays(SQ)
    with pytest.raises(ModelValidationError, match="fixed point"):
        validate_model_arrays(v, o, fixed_points=[(3, 0.0, 0.0)])
    with pytest.raises(ModelValidationError, match="load point"):
        validate_model_arrays(v, o, load_points=[(-1, 0, 0, 0, 0)])


# ----------------------------------------------------------------------
# load_system integration
# ----------------------------------------------------------------------

def test_load_validates_by_default(tmp_path):
    system = two_blocks()
    system.fix_block(0)
    stem = tmp_path / "model"
    save_system(system, stem)
    loaded = load_system(stem)  # clean model loads fine
    assert loaded.n_blocks == 2

    # corrupt the persisted vertex array, keep the header
    data = dict(np.load(stem.with_suffix(".npz")))
    data["vertices"][5, 0] = np.inf
    np.savez_compressed(stem.with_suffix(".npz"), **data)
    with pytest.raises(ModelValidationError, match="non-finite") as exc:
        load_system(stem)
    assert exc.value.block == 1


def test_load_validate_opt_out(tmp_path):
    system = two_blocks()
    stem = tmp_path / "model"
    save_system(system, stem)
    # duplicate-block corruption that Block construction itself accepts
    data = dict(np.load(stem.with_suffix(".npz")))
    data["vertices"][4:8] = data["vertices"][0:4]
    np.savez_compressed(stem.with_suffix(".npz"), **data)
    with pytest.raises(ModelValidationError, match="duplicate"):
        load_system(stem)
    loaded = load_system(stem, validate=False)  # opt-out still loads
    assert loaded.n_blocks == 2


def test_error_is_value_error():
    # ModelValidationError must be catchable as ValueError (API promise)
    assert issubclass(ModelValidationError, ValueError)
