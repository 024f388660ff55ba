"""Workload generation: joint sets, block cutting, and the paper's cases.

The paper's models (a 4361-block slope, a 1683-block falling-rock scene)
come from proprietary engineering data. We rebuild statistically
equivalent models the way DDA preprocessors do: generate joint traces
(:mod:`repro.meshing.joints`), compute the planar arrangement of domain
boundary + joints (:mod:`repro.meshing.arrangement`), and extract the
bounded faces as blocks (:mod:`repro.meshing.block_cutter`).
:mod:`repro.meshing.slope_models` assembles ready-to-run Case-1-like and
Case-2-like systems at any scale.

:mod:`repro.meshing.voronoi` is exported lazily (PEP 562): it is the only
importer of ``scipy.spatial``, which costs more to load than the rest of
an engine process's imports together, so it loads when a Voronoi model
is built and not before.
"""

from repro.meshing.arrangement import PlanarArrangement, extract_faces
from repro.meshing.block_cutter import cut_blocks
from repro.meshing.joints import generate_joint_set, JointSet
from repro.meshing.slope_models import (
    build_brick_wall,
    build_slope_model,
    build_falling_rocks_model,
)

_LAZY = {
    "build_voronoi_rubble": "repro.meshing.voronoi",
    "voronoi_cells": "repro.meshing.voronoi",
}

__all__ = [
    "build_voronoi_rubble",
    "voronoi_cells",
    "PlanarArrangement",
    "extract_faces",
    "cut_blocks",
    "generate_joint_set",
    "JointSet",
    "build_brick_wall",
    "build_slope_model",
    "build_falling_rocks_model",
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
