"""Block-system and checkpoint persistence (JSON header + npz arrays).

A saved model is a pair of files: ``<stem>.json`` with materials, boundary
conditions, and metadata; ``<stem>.npz`` with the geometry and state
arrays. The pair round-trips everything an engine needs to resume.

A saved *checkpoint* (:func:`save_checkpoint` / :func:`load_checkpoint`)
is a single ``.npz`` holding an engine snapshot — geometry, velocities,
stresses, the carried contact table, ``dt``/``sim_time``, the PCG
warm-start vector — plus a SHA-256 integrity digest; a mismatch (bit rot,
truncated write, hand-edited file) raises
:class:`~repro.engine.resilience.CheckpointCorrupt`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
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
        "fixed_points": [
            [int(b), float(x), float(y)] for b, x, y in system.fixed_points
        ],
        "fixed_anchors": [
            [float(x), float(y)] for x, y in system.fixed_anchors
        ],
        "load_points": [
            [int(b), float(x), float(y), float(fx), float(fy)]
            for b, x, y, fx, fy in system.load_points
        ],
    }
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

#: ContactSet fields persisted per checkpoint, in struct-of-arrays form.
_CONTACT_FIELDS = (
    "block_i", "block_j", "vertex_idx", "e1_idx", "e2_idx", "kind",
    "state", "prev_state", "ratio", "shear_sign", "pn", "ps",
    "normal_disp", "shear_disp",
)


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


def save_checkpoint(cp, path: str | Path) -> Path:
    """Persist a :class:`~repro.engine.resilience.Checkpoint` to ``path``.

    Writes a single ``<path>.npz`` whose payload is protected by a
    SHA-256 digest recomputed at load time.
    """
    path = Path(path).with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": "repro-dda-checkpoint",
        "version": 1,
        "step": int(cp.step),
        "dt": float(cp.dt),
        "sim_time": float(cp.sim_time),
        "fixed_points": [
            [int(b), float(x), float(y)] for b, x, y in cp.fixed_points
        ],
        "fixed_anchors": [[float(x), float(y)] for x, y in cp.fixed_anchors],
        "load_points": [
            [int(b), float(x), float(y), float(fx), float(fy)]
            for b, x, y, fx, fy in cp.load_points
        ],
    }
    arrays = {
        "vertices": cp.vertices,
        "velocities": cp.velocities,
        "stresses": cp.stresses,
        "prev_solution": cp.prev_solution,
    }
    for name in _CONTACT_FIELDS:
        arrays[f"c_{name}"] = getattr(cp.contacts, name)
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
    from repro.contact.contact_set import ContactSet
    from repro.engine.resilience import Checkpoint, CheckpointCorrupt

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    try:
        with np.load(path, allow_pickle=False) as data:
            header_json = str(data["__header__"])
            stored_digest = str(data["__checksum__"])
            arrays = {
                k: data[k] for k in data.files if not k.startswith("__")
            }
        header = json.loads(header_json)
    except CheckpointCorrupt:
        raise
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
        contacts = ContactSet(
            **{name: arrays[f"c_{name}"] for name in _CONTACT_FIELDS}
        )
        return Checkpoint(
            step=int(header["step"]),
            dt=float(header["dt"]),
            sim_time=float(header["sim_time"]),
            vertices=arrays["vertices"],
            velocities=arrays["velocities"],
            stresses=arrays["stresses"],
            prev_solution=arrays["prev_solution"],
            fixed_points=[
                (int(b), float(x), float(y))
                for b, x, y in header["fixed_points"]
            ],
            fixed_anchors=[
                (float(x), float(y)) for x, y in header["fixed_anchors"]
            ],
            load_points=[
                (int(b), float(x), float(y), float(fx), float(fy))
                for b, x, y, fx, fy in header["load_points"]
            ],
            contacts=contacts,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointCorrupt(
            f"{path}: malformed checkpoint payload ({exc})"
        ) from exc
