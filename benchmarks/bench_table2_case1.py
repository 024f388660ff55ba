"""Table II — Case 1 (static slope stability) per-module times & speed-ups.

Paper (4361 blocks, 40 000 steps; E5620 serial vs K20/K40):

    module                    K20 speed-up   K40 speed-up
    contact detection             93.18         117.69
    diagonal matrix building      84.98         107.74
    non-diagonal matrix building   3.60           4.38
    equation solving              46.38          53.60
    interpenetration checking     37.19          39.44
    data updating                 44.60          49.04
    total                         41.94          48.72

Shape to reproduce at our scaled size (hundreds of blocks, a few steps):
contact detection gets the largest speed-up, equation solving a large
one, non-diagonal building the smallest, K40 beats K20, and the total
sits between the extremes. Absolute speed-ups grow with model size (the
bench also reports the size used).
"""

import numpy as np
import pytest

from benchmarks.common import (
    RESULTS_DIR,
    case1_controls,
    modelled_per_step,
    scaled_case1_system,
)
from repro.engine.gpu_engine import GpuEngine
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import K20, K40
from repro.io.reporting import ComparisonReport
from repro.util.timing import PIPELINE_MODULES

PAPER_K20 = {
    "contact_detection": 93.18,
    "diagonal_matrix_building": 84.98,
    "nondiagonal_matrix_building": 3.6,
    "equation_solving": 46.38,
    "interpenetration_checking": 37.19,
    "data_updating": 44.6,
    "total": 41.94,
}
PAPER_K40 = {
    "contact_detection": 117.69,
    "diagonal_matrix_building": 107.74,
    "nondiagonal_matrix_building": 4.38,
    "equation_solving": 53.6,
    "interpenetration_checking": 39.44,
    "data_updating": 49.04,
    "total": 48.72,
}

#: Two steps of a ~530-block slope: large enough that the O(n^2) broad
#: phase dominates the serial side (the paper's regime), small enough to
#: run in seconds.
STEPS = 2
SPACING = 2.2


def measure() -> dict:
    """Modelled per-step times and final centroids of the three runs."""
    runs = {}
    for label, engine_cls, profile in (
        ("e5620", SerialEngine, None),
        ("k20", GpuEngine, K20),
        ("k40", GpuEngine, K40),
    ):
        system = scaled_case1_system(joint_spacing=SPACING, seed=7)
        engine = engine_cls(system, case1_controls(), profile=profile)
        result = engine.run(steps=STEPS)
        runs[label] = dict(
            per_step=modelled_per_step(result), centroids=system.centroids.copy()
        )
        runs["n_blocks"] = system.n_blocks
    return runs


def report(runs) -> str:
    """The text of ``results/table_ii.txt``."""
    table = ComparisonReport(
        "Table II", f"Case 1 per-module speed-ups (scaled: "
        f"{runs['n_blocks']} blocks, {STEPS} steps)"
    )
    cpu = runs["e5620"]["per_step"]
    for dev_label, paper in (("k20", PAPER_K20), ("k40", PAPER_K40)):
        gpu = runs[dev_label]["per_step"]
        for module in list(PIPELINE_MODULES) + ["total"]:
            measured = cpu[module] / gpu[module] if gpu[module] else float("inf")
            table.add(
                f"{dev_label.upper()} {module} speed-up",
                paper[module], round(measured, 2),
            )
    # absolute modelled per-step times (the tables' time columns)
    for label in ("e5620", "k20", "k40"):
        table.add(
            f"{label.upper()} modelled time per step (ms)", "",
            round(1e3 * runs[label]["per_step"]["total"], 3),
        )
    table.note(
        f"paper: 4361 blocks x 40000 steps; here {runs['n_blocks']} blocks "
        f"x {STEPS} steps — modelled speed-ups grow with block count "
        "(see bench_ablation output and EXPERIMENTS.md)"
    )
    return table.render()


@pytest.fixture(scope="module")
def case1_runs():
    runs = measure()
    text = report(runs)
    (RESULTS_DIR / "table_ii.txt").write_text(text + "\n")
    print()
    print(text)
    return runs


def test_table2_trajectories_identical(case1_runs):
    """Both pipelines and both GPU profiles integrate the same physics."""
    np.testing.assert_allclose(
        case1_runs["e5620"]["centroids"], case1_runs["k40"]["centroids"],
        atol=1e-7,
    )
    np.testing.assert_allclose(
        case1_runs["k20"]["centroids"], case1_runs["k40"]["centroids"],
        atol=1e-10,
    )


def test_table2_speedup_shape(case1_runs):
    cpu = case1_runs["e5620"]["per_step"]
    for dev in ("k20", "k40"):
        gpu = case1_runs[dev]["per_step"]
        sp = {
            m: cpu[m] / gpu[m] if gpu[m] else float("inf")
            for m in list(PIPELINE_MODULES) + ["total"]
        }
        # GPU wins overall and in every module
        assert sp["total"] > 1.0
        for m in PIPELINE_MODULES:
            assert sp[m] > 1.0, m
        # contact detection gets the highest speed-up (paper's row 1)
        assert sp["contact_detection"] == max(sp[m] for m in PIPELINE_MODULES)
        # equation solving's speed-up is large but below contact
        # detection's (paper: 53.6 vs 117.7)
        assert sp["equation_solving"] < sp["contact_detection"]
        # non-diagonal building speeds up less than contact detection
        # (paper: 4.4 vs 117.7 — the sort/scan machinery has overhead)
        assert sp["nondiagonal_matrix_building"] < sp["contact_detection"]
    # K40 beats K20 overall
    assert (
        case1_runs["k40"]["per_step"]["total"]
        < case1_runs["k20"]["per_step"]["total"]
    )


def test_table2_gpu_step_benchmark(benchmark, case1_runs):
    """Wall-clock of one GPU-pipeline step at the Table-II scale."""
    system = scaled_case1_system(joint_spacing=SPACING, seed=7)
    engine = GpuEngine(system, case1_controls())
    engine.run(steps=1)  # warm up contacts

    def one_step():
        return engine.run(steps=1)

    result = benchmark.pedantic(one_step, rounds=2, iterations=1)
    assert result.n_steps == 1
