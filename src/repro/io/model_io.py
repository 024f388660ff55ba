"""Block-system and checkpoint persistence (JSON header + npz arrays).

A saved model is a pair of files: ``<stem>.json`` with materials, boundary
conditions, and metadata; ``<stem>.npz`` with the geometry and state
arrays. The pair round-trips everything an engine needs to resume.

A saved *checkpoint* (:func:`save_checkpoint` / :func:`load_checkpoint`)
is a single ``.npz`` holding an engine snapshot — every field of
:data:`repro.engine.physics.CARRIED` — plus a SHA-256 integrity
digest; a mismatch (bit rot, truncated write, hand-edited file) raises
:class:`~repro.engine.resilience.CheckpointCorrupt`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.contact.contact_set import ContactSet
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.engine.physics import CARRIED, Checkpoint
from repro.util.validation import validate_model_arrays


def save_system(system: BlockSystem, stem: str | Path) -> tuple[Path, Path]:
    """Write ``<stem>.json`` and ``<stem>.npz``; returns both paths."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": "repro-dda-model",
        "version": 1,
        "n_blocks": int(system.n_blocks),
        "materials": [
            {
                "density": m.density,
                "young": m.young,
                "poisson": m.poisson,
                "plane_strain": m.plane_strain,
            }
            for m in system.materials
        ],
        "joint_material": {
            "friction_angle_deg": system.joint_material.friction_angle_deg,
            "cohesion": system.joint_material.cohesion,
            "tensile_strength": system.joint_material.tensile_strength,
        },
    }
    for carried in CARRIED:  # the boundary points, as a checkpoint has them
        if isinstance(carried.metadata["kind"], tuple):
            _save(carried, getattr(system, carried.name), header, {})
    json_path = stem.with_suffix(".json")
    npz_path = stem.with_suffix(".npz")
    json_path.write_text(json.dumps(header, indent=2))
    np.savez_compressed(
        npz_path,
        vertices=system.vertices,
        offsets=system.offsets,
        material_id=system.material_id,
        velocities=system.velocities,
        stresses=system.stresses,
    )
    return json_path, npz_path


def load_system(stem: str | Path, *, validate: bool = True) -> BlockSystem:
    """Load a system saved by :func:`save_system`.

    With ``validate=True`` (the default) the raw arrays are checked
    before any block is constructed — non-finite vertices, degenerate
    or self-intersecting polygons, duplicate blocks, out-of-range
    material ids and boundary-condition block indices all raise
    :class:`~repro.util.validation.ModelValidationError` naming the
    offending block, instead of failing later inside a kernel.
    """
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("format") != "repro-dda-model":
        raise ValueError(f"{stem}: not a repro DDA model file")
    data = np.load(stem.with_suffix(".npz"))
    materials = [BlockMaterial(**m) for m in header["materials"]]
    joint = JointMaterial(**header["joint_material"])
    offsets = data["offsets"]
    vertices = data["vertices"]
    material_id = data["material_id"]
    if validate:
        validate_model_arrays(
            vertices,
            offsets,
            material_id,
            n_materials=len(materials),
            fixed_points=header["fixed_points"],
            load_points=header["load_points"],
        )
    blocks = [
        Block(
            vertices[offsets[i] : offsets[i + 1]].copy(),
            materials[material_id[i]],
        )
        for i in range(header["n_blocks"])
    ]
    system = BlockSystem(blocks, joint)
    system.velocities = data["velocities"].copy()
    system.stresses = data["stresses"].copy()
    for b, x, y in header["fixed_points"]:
        system.fix_point(b, x, y)
    anchors = header.get("fixed_anchors")
    if anchors is not None:
        system.fixed_anchors = [(float(x), float(y)) for x, y in anchors]
    for b, x, y, fx, fy in header["load_points"]:
        system.add_point_load(b, x, y, fx, fy)
    return system


# ----------------------------------------------------------------------
# engine checkpoints (npz + SHA-256 integrity digest)
# ----------------------------------------------------------------------

#: ContactSet columns, one ``c_<column>`` npz member each. A member no
#: column reads (``c_shear_disp``, in older files) is ignored.
_CONTACT_COLUMNS = tuple(f.name for f in dataclasses.fields(ContactSet))


def _checkpoint_digest(header_json: str, arrays: dict) -> str:
    """SHA-256 over the header string and every array's raw bytes."""
    h = hashlib.sha256(header_json.encode())
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _save(
    carried: dataclasses.Field, value: Any, header: dict, arrays: dict
) -> None:
    """Put one carried value into the header or the npz members."""
    name, kind = carried.name, carried.metadata["kind"]
    if kind in (int, float):
        header[name] = kind(value)
    elif kind == "array":
        arrays[name] = value
    elif kind == "contacts":
        for column in _CONTACT_COLUMNS:
            arrays[f"c_{column}"] = getattr(value, column)
    else:  # rows of points, one converter per coordinate
        header[name] = [
            [to(v) for to, v in zip(kind, row, strict=True)] for row in value
        ]


def _load(carried: dataclasses.Field, header: dict, arrays: dict) -> Any:
    """The inverse of :func:`_save`."""
    name, kind = carried.name, carried.metadata["kind"]
    if kind in (int, float):
        return kind(header[name])
    if kind == "array":
        return arrays[name]
    if kind == "contacts":
        return ContactSet(
            **{column: arrays[f"c_{column}"] for column in _CONTACT_COLUMNS}
        )
    return [
        tuple(to(v) for to, v in zip(kind, row, strict=True))
        for row in header[name]
    ]


def save_checkpoint(cp, path: str | Path) -> Path:
    """Persist a :class:`~repro.engine.physics.Checkpoint` to ``path``.

    Writes a single ``<path>.npz`` whose payload is protected by a
    SHA-256 digest recomputed at load time.
    """
    path = Path(path).with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    header: dict[str, Any] = {"format": "repro-dda-checkpoint", "version": 1}
    arrays: dict[str, Any] = {}
    for carried in CARRIED:
        _save(carried, getattr(cp, carried.name), header, arrays)
    header_json = json.dumps(header, sort_keys=True)
    digest = _checkpoint_digest(header_json, arrays)
    np.savez_compressed(
        path,
        __header__=np.array(header_json),
        __checksum__=np.array(digest),
        **arrays,
    )
    return path


def load_checkpoint(path: str | Path):
    """Load a checkpoint saved by :func:`save_checkpoint`.

    Raises :class:`~repro.engine.resilience.CheckpointCorrupt` when the
    file is unreadable, has the wrong format tag, or fails its SHA-256
    integrity check.
    """
    from repro.engine.resilience import CheckpointCorrupt

    path = Path(path).with_suffix(".npz")
    try:
        with np.load(path, allow_pickle=False) as data:
            header_json = str(data["__header__"])
            stored_digest = str(data["__checksum__"])
            arrays = {
                k: data[k] for k in data.files if not k.startswith("__")
            }
        header = json.loads(header_json)
    except Exception as exc:
        raise CheckpointCorrupt(
            f"{path}: unreadable checkpoint ({exc})"
        ) from exc
    if header.get("format") != "repro-dda-checkpoint":
        raise CheckpointCorrupt(f"{path}: not a repro DDA checkpoint")
    digest = _checkpoint_digest(header_json, arrays)
    if digest != stored_digest:
        raise CheckpointCorrupt(
            f"{path}: integrity check failed "
            f"(stored {stored_digest[:12]}..., computed {digest[:12]}...)"
        )
    try:
        return Checkpoint(**{c.name: _load(c, header, arrays) for c in CARRIED})
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointCorrupt(
            f"{path}: malformed checkpoint payload ({exc})"
        ) from exc
