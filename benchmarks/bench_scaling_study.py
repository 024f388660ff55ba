"""Extension — speed-up vs model size (the scaling behind Tables II/III).

The paper measures one model size per case; this study sweeps the block
count and shows how the modelled GPU/CPU speed-up grows toward the
paper's 4361-block numbers: kernel launch overhead amortises, the O(n^2)
serial broad phase takes over, and the solver's parallel work saturates
the device. This is the quantitative justification for comparing the
scaled Tables II/III against the paper's larger model.
"""

import pytest

from benchmarks.common import RESULTS_DIR, case1_controls, scaled_case1_system
from repro.engine.gpu_engine import GpuEngine
from repro.engine.serial_engine import SerialEngine
from repro.io.reporting import ComparisonReport

SPACINGS = (8.0, 5.0, 3.0)  # coarse -> fine: growing block counts
STEPS = 2


@pytest.fixture(scope="module")
def scaling():
    points = []
    for spacing in SPACINGS:
        g = GpuEngine(
            scaled_case1_system(joint_spacing=spacing, seed=7),
            case1_controls(),
        )
        rg = g.run(steps=STEPS)
        s = SerialEngine(
            scaled_case1_system(joint_spacing=spacing, seed=7),
            case1_controls(),
        )
        rs = s.run(steps=STEPS)
        cpu = rs.modeled_module_times()
        gpu = rg.modeled_module_times()
        points.append(
            dict(
                n=g.system.n_blocks,
                total=sum(cpu.values()) / sum(gpu.values()),
                detection=cpu["contact_detection"] / gpu["contact_detection"],
                solving=cpu["equation_solving"] / gpu["equation_solving"],
            )
        )
    report = ComparisonReport(
        "Scaling study", "modelled total speed-up vs block count"
    )
    for p in points:
        report.add(f"n={p['n']} total speed-up", "grows with n",
                   round(p["total"], 2))
        report.add(f"n={p['n']} contact-detection speed-up", "O(n^2) serial",
                   round(p["detection"], 2))
    report.add("paper's end point", "48.72x at n=4361", "extrapolated")
    report.write(RESULTS_DIR)
    print()
    print(report.render())
    return points


def test_total_speedup_grows_with_n(scaling):
    totals = [p["total"] for p in scaling]
    assert totals == sorted(totals)
    assert totals[-1] > 2 * totals[0]


def test_detection_speedup_grows_fastest(scaling):
    # contact detection's serial cost is O(n^2): its speed-up must grow
    # faster than the solver's from the coarsest to the finest model
    growth_det = scaling[-1]["detection"] / scaling[0]["detection"]
    growth_sol = scaling[-1]["solving"] / scaling[0]["solving"]
    assert growth_det > growth_sol


def test_scaling_benchmark(benchmark, scaling):
    def one_coarse_run():
        g = GpuEngine(
            scaled_case1_system(joint_spacing=8.0, seed=7), case1_controls()
        )
        return g.run(steps=1)

    result = benchmark.pedantic(one_coarse_run, rounds=1, iterations=1)
    assert result.n_steps == 1
