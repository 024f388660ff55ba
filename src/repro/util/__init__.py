"""Shared utilities: validation, deterministic RNG, tables, timing."""

from repro.util.validation import (
    check_array,
    check_positive,
    validate_model_arrays,
    validate_system,
    ModelValidationError,
    ReproError,
    ShapeError,
)
from repro.util.hashing import canonical_json, content_hash
from repro.util.rng import make_rng
from repro.util.tables import Table
from repro.util.timing import ModuleTimes

__all__ = [
    "check_array",
    "check_positive",
    "validate_model_arrays",
    "validate_system",
    "ModelValidationError",
    "ReproError",
    "ShapeError",
    "canonical_json",
    "content_hash",
    "make_rng",
    "Table",
    "ModuleTimes",
]
