"""Smoke tests: every example script runs end to end.

Each example is executed in-process (same interpreter, patched argv) at a
reduced size, asserting it exits cleanly and prints its headline output.
This keeps the examples working as the library evolves.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "quickstart OK" in out

    def test_slope_stability(self, capsys):
        out = run_example(
            "slope_stability.py", ["--spacing", "12", "--steps", "4"], capsys
        )
        assert "speed-up" in out
        assert "initial state" in out

    def test_falling_rocks(self, capsys):
        out = run_example(
            "falling_rocks.py",
            ["--rows", "2", "--cols", "3", "--steps", "40"],
            capsys,
        )
        assert "falling-rocks example OK" in out

    def test_spmv_showcase(self, capsys):
        out = run_example(
            "spmv_showcase.py", ["--n", "200", "--m", "700"], capsys
        )
        assert "correctness OK" in out
        assert "HSBCSR" in out and "BCSR (full)" in out

    def test_preconditioner_study(self, capsys):
        out = run_example("preconditioner_study.py", ["--steps", "2"], capsys)
        assert "BJ" in out and "ILU" in out and "NEUMANN" in out

    def test_rubble_collapse(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = run_example(
            "rubble_collapse.py",
            ["--blocks", "12", "--max-steps", "30"],
            capsys,
        )
        assert "rubble pile" in out
        assert (tmp_path / "results" / "rubble_steps.csv").exists()

    def test_rubble_builder_import_routes_agree(self):
        """The example imports the module, ``docs/usage.md`` the package's
        lazy export, the README the top-level one: one function."""
        import repro
        import repro.meshing
        from repro.meshing.voronoi import build_voronoi_rubble

        assert "repro.meshing.voronoi import build_voronoi_rubble" in (
            EXAMPLES / "rubble_collapse.py"
        ).read_text(encoding="utf-8")
        assert repro.meshing.build_voronoi_rubble is build_voronoi_rubble
        assert repro.build_voronoi_rubble is build_voronoi_rubble
        assert "build_voronoi_rubble" in repro.meshing.__all__

    @pytest.mark.slow
    def test_seismic_sliding_quick(self, capsys):
        out = run_example("seismic_sliding.py", ["--quick"], capsys)
        assert "Newmark" in out
