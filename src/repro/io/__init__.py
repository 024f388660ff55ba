"""Model persistence and experiment reporting."""

from repro.io.model_io import save_system, load_system
from repro.io.reporting import ComparisonReport
from repro.io.ascii_art import render_system
from repro.io.batch_io import (
    read_json,
    summarize_result,
    write_json_atomic,
)

__all__ = [
    "save_system",
    "load_system",
    "read_json",
    "summarize_result",
    "write_json_atomic",
    "ComparisonReport",
    "render_system",
]
