"""Input validation helpers used across the package.

All public entry points validate their inputs eagerly so that misuse fails
with a clear message at the API boundary instead of deep inside a kernel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """An array argument had the wrong shape, dtype, or contents."""


def check_array(
    name: str,
    value: object,
    *,
    dtype: type | None = None,
    ndim: int | None = None,
    shape: Sequence[int | None] | None = None,
    finite: bool = False,
    allow_empty: bool = True,
) -> np.ndarray:
    """Coerce ``value`` to an ndarray and validate it.

    Parameters
    ----------
    name:
        Argument name used in error messages.
    dtype:
        If given, the array is converted to this dtype (safe casting).
    ndim:
        Required number of dimensions.
    shape:
        Required shape; ``None`` entries are wildcards.
    finite:
        Require all entries to be finite (no NaN/inf).
    allow_empty:
        If false, reject zero-size arrays.

    Returns
    -------
    numpy.ndarray
        The validated (possibly converted) array.
    """
    try:
        arr = np.asarray(value)
    except Exception as exc:  # pragma: no cover - numpy raises rarely here
        raise ShapeError(f"{name}: cannot convert to ndarray: {exc}") from exc
    if dtype is not None:
        try:
            arr = arr.astype(dtype, casting="safe", copy=False)
        except TypeError as exc:
            raise ShapeError(
                f"{name}: dtype {arr.dtype} not safely castable to {np.dtype(dtype)}"
            ) from exc
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name}: expected {ndim} dimensions, got {arr.ndim}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ShapeError(
                f"{name}: expected shape {tuple(shape)}, got {arr.shape}"
            )
        for axis, (want, got) in enumerate(zip(shape, arr.shape)):
            if want is not None and want != got:
                raise ShapeError(
                    f"{name}: axis {axis} expected length {want}, got {got}"
                )
    if not allow_empty and arr.size == 0:
        raise ShapeError(f"{name}: must not be empty")
    if finite and arr.size and not np.all(np.isfinite(arr)):  # lint: sync-ok[validation-gate] -- raises on non-finite input before kernels run
        raise ShapeError(f"{name}: contains non-finite values")
    return arr


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate a scalar is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if not np.isfinite(value):
        raise ShapeError(f"{name}: must be finite, got {value}")
    if strict and value <= 0.0:
        raise ShapeError(f"{name}: must be > 0, got {value}")
    if not strict and value < 0.0:
        raise ShapeError(f"{name}: must be >= 0, got {value}")
    return value


class ModelValidationError(ReproError, ValueError):
    """A model failed structural validation at load time.

    Carries the offending block index (``block``, or ``None`` when the
    problem is not attributable to one block) so callers and error
    messages can point at the exact culprit instead of "somewhere in
    the npz".
    """

    def __init__(self, message: str, *, block: int | None = None) -> None:
        prefix = f"block {block}: " if block is not None else ""
        super().__init__(prefix + message)
        self.block = block


def non_simple_blocks(
    vertices: np.ndarray, offsets: np.ndarray, *, eps_area: float
) -> np.ndarray:
    """``(n_blocks,)`` mask of the polygons two of whose non-adjacent
    edges properly cross, in one vectorised pass over every such edge
    pair of every block.

    A crossing is an orientation-sign test; crossings within
    ``eps_area`` (an absolute twice-area tolerance, pre-scaled by the
    caller) of an endpoint do not count, so shared polygon vertices are
    not flagged. Vertices must be finite (both callers reject a
    non-finite one first).
    """

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (
            q[..., 0] - o[..., 0]
        ) * (p[..., 1] - o[..., 1])

    counts = np.diff(offsets)
    bad = np.zeros(counts.size, dtype=bool)
    for c in np.unique(counts):
        blocks = np.flatnonzero(counts == c)
        # edge pairs (i, j), j >= i + 2, less the wrap-around pair (0, c-1)
        i, j = np.triu_indices(c, k=2)
        keep = ~((i == 0) & (j == c - 1))
        i, j = i[keep], j[keep]
        start = offsets[blocks][:, None]
        # about 2**16 (block, edge pair) couples at a time: a polygon of
        # thousands of vertices must not cost gigabytes of temporaries
        step = max(1, 2**16 // blocks.size)
        for k in range(0, i.size, step):
            ik, jk = i[k : k + step], j[k : k + step]
            a1, b1 = vertices[start + ik], vertices[start + ik + 1]
            a2, b2 = vertices[start + jk], vertices[start + (jk + 1) % c]
            d1, d2 = cross(a2, b2, a1), cross(a2, b2, b1)
            d3, d4 = cross(a1, b1, a2), cross(a1, b1, b2)
            clear = np.abs([d1, d2, d3, d4]).min(axis=0) > eps_area
            crosses = (
                clear & ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            )
            bad[blocks] |= crosses.any(axis=1)
    return bad


def _canonical_polygon_key(poly: np.ndarray, eps_length: float) -> bytes:
    """Rotation-invariant hash key for duplicate-block detection.

    Vertices are quantised to the length tolerance and the cycle is
    rotated to start at the lexicographically smallest vertex, so two
    blocks tracing the same polygon from different start vertices (or
    differing below tolerance) collide.
    """
    q = np.round(poly / max(eps_length, 1e-300)).astype(np.int64)
    start = int(np.lexsort((q[:, 1], q[:, 0]))[0])
    return np.roll(q, -start, axis=0).tobytes()


def validate_model_arrays(
    vertices: np.ndarray,
    offsets: np.ndarray,
    material_id: np.ndarray | None = None,
    *,
    n_materials: int | None = None,
    fixed_points=(),
    load_points=(),
) -> None:
    """Validate flattened model arrays before block construction.

    Checks, in order: offsets structure, vertex-array shape, finite
    coordinates, per-block vertex counts, material-id bounds,
    (scale-relative) non-zero polygon area, polygon simplicity,
    duplicate blocks, and boundary-condition block indices. Raises
    :class:`ModelValidationError` naming the first offending block.
    """
    # lazy import: geometry imports this module, so it cannot be a
    # top-level import here
    from repro.geometry.polygon import next_vertices, shoelace
    from repro.geometry.tolerances import Tolerances

    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.size < 2:
        raise ModelValidationError(
            f"offsets must be 1-D with >= 2 entries, got shape {offsets.shape}"
        )
    if offsets[0] != 0:
        raise ModelValidationError(
            f"offsets must start at 0, got {offsets[0]}"
        )
    counts = np.diff(offsets)
    n_blocks = counts.size
    bad = np.flatnonzero(counts <= 0)
    if bad.size:
        raise ModelValidationError(
            "empty vertex range (non-increasing offsets)",
            block=int(bad[0]),
        )
    vertices = np.asarray(vertices)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ModelValidationError(
            f"vertices must have shape (V, 2), got {vertices.shape}"
        )
    if int(offsets[-1]) != vertices.shape[0]:
        raise ModelValidationError(
            f"offsets end at {int(offsets[-1])} but there are "
            f"{vertices.shape[0]} vertices"
        )
    bad = np.flatnonzero(counts < 3)
    if bad.size:
        raise ModelValidationError(
            f"polygon has {int(counts[bad[0]])} vertices (need >= 3)",
            block=int(bad[0]),
        )
    nonfinite = ~np.isfinite(vertices).all(axis=1)
    if nonfinite.any():
        vidx = int(np.flatnonzero(nonfinite)[0])
        block = int(np.searchsorted(offsets, vidx, side="right") - 1)
        raise ModelValidationError(
            f"non-finite vertex coordinates at vertex {vidx}", block=block
        )
    if material_id is not None:
        material_id = np.asarray(material_id)
        if material_id.shape != (n_blocks,):
            raise ModelValidationError(
                f"material_id must have shape ({n_blocks},), "
                f"got {material_id.shape}"
            )
        if n_materials is not None:
            bad = np.flatnonzero(
                (material_id < 0) | (material_id >= n_materials)
            )
            if bad.size:
                raise ModelValidationError(
                    f"material_id {int(material_id[bad[0]])} out of range "
                    f"[0, {n_materials})",
                    block=int(bad[0]),
                )
    tol = Tolerances.from_points(vertices, rel=1e-12)
    non_simple = non_simple_blocks(vertices, offsets, eps_area=tol.eps_area)
    seen: dict[bytes, int] = {}
    for b in range(n_blocks):
        poly = vertices[offsets[b] : offsets[b + 1]]
        area = shoelace(poly, next_vertices(poly))
        span = poly.max(axis=0) - poly.min(axis=0)
        if abs(area) <= max(1e-14, 1e-12 * float(span @ span)):
            raise ModelValidationError(
                "polygon has (near-)zero area", block=b
            )
        if non_simple[b]:
            raise ModelValidationError(
                "polygon is non-simple (self-intersecting)", block=b
            )
        key = _canonical_polygon_key(poly, tol.eps_length)
        if key in seen:
            raise ModelValidationError(
                f"duplicate of block {seen[key]} "
                "(coincident geometry within tolerance)",
                block=b,
            )
        seen[key] = b
    for entry in fixed_points:
        b = int(entry[0])
        if not (0 <= b < n_blocks):
            raise ModelValidationError(
                f"fixed point references block {b} out of range "
                f"[0, {n_blocks})"
            )
    for entry in load_points:
        b = int(entry[0])
        if not (0 <= b < n_blocks):
            raise ModelValidationError(
                f"load point references block {b} out of range "
                f"[0, {n_blocks})"
            )


def validate_system(system) -> None:
    """Run :func:`validate_model_arrays` against a built ``BlockSystem``."""
    validate_model_arrays(
        system.vertices,
        system.offsets,
        system.material_id,
        n_materials=len(system.materials),
        fixed_points=system.fixed_points,
        load_points=system.load_points,
    )
