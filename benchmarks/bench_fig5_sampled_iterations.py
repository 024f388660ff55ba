"""Fig. 5 — sampled per-step CG iteration counts of the three preconditioners.

The paper plots 26 sampled time steps; at every sample ILU needs the
fewest iterations and BJ the most. This bench runs a short DDA step
sequence per preconditioner (same model, same schedule), records the
iteration series, asserts the per-sample ordering, and writes the series
so the figure can be re-plotted.
"""

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR
from repro.io.reporting import ComparisonReport
from repro.solvers.cg import pcg
from repro.solvers.preconditioners import make_preconditioner

N_SAMPLES = 26


@pytest.fixture(scope="module")
def iteration_series():
    """Per-preconditioner iteration counts over a perturbed solve sequence.

    Each sample perturbs the right-hand side (as successive DDA steps do)
    and solves from the previous sample's solution — the warm-start
    pattern the paper describes.
    """
    from benchmarks.common import representative_step_matrix

    matrix, b = representative_step_matrix(joint_spacing=4.0, seed=3)
    rng = np.random.default_rng(0)
    series: dict[str, list[int]] = {}
    for name in ("bj", "ssor", "ilu"):
        pre = make_preconditioner(name, matrix)
        x = None
        iters = []
        for k in range(N_SAMPLES):
            bk = b * (1.0 + 0.05 * np.sin(0.7 * k)) + rng.normal(
                0.0, 0.02 * np.abs(b).mean(), size=b.size
            )
            res = pcg(matrix, bk, x0=x, preconditioner=pre, tol=1e-8,
                      max_iterations=2000)
            assert res.converged
            x = res.x
            iters.append(res.iterations)
        series[name] = iters
    _write_report(series)
    return series


def test_fig5_sampled_ordering(iteration_series):
    s = iteration_series
    bj = np.array(s["bj"], dtype=float)
    ssor = np.array(s["ssor"], dtype=float)
    ilu = np.array(s["ilu"], dtype=float)
    # per-sample mean ordering matches the figure: ILU < SSOR < BJ
    assert ilu.mean() < ssor.mean() < bj.mean()
    # ordering holds on a large majority of individual samples
    assert np.mean(ilu <= ssor) > 0.7
    assert np.mean(ssor <= bj) > 0.7


def _write_report(s) -> None:
    bj = np.array(s["bj"], dtype=float)
    ssor = np.array(s["ssor"], dtype=float)
    ilu = np.array(s["ilu"], dtype=float)
    report = ComparisonReport("Fig 5", "sampled CG iterations per step")
    report.add("samples", 26, N_SAMPLES)
    report.add("BJ mean iterations", 275, round(bj.mean(), 2))
    report.add("SSOR mean iterations", 141, round(ssor.mean(), 2))
    report.add("ILU mean iterations", 93, round(ilu.mean(), 2))
    report.add("BJ/ILU ratio", 2.95, round(bj.mean() / ilu.mean(), 2))
    report.add("SSOR/ILU ratio", 1.51, round(ssor.mean() / ilu.mean(), 2))
    report.note("series written alongside this report for re-plotting")
    path = report.write(RESULTS_DIR)
    with open(path.with_name("fig5_series.txt"), "w") as fh:
        fh.write("sample bj ssor ilu\n")
        for k in range(N_SAMPLES):
            fh.write(f"{k} {s['bj'][k]} {s['ssor'][k]} {s['ilu'][k]}\n")
    print()
    print(report.render())


def test_fig5_series_benchmark(benchmark, iteration_series):
    """Wall-clock of one warm-started BJ sample solve."""
    from benchmarks.common import representative_step_matrix

    matrix, b = representative_step_matrix(joint_spacing=4.0, seed=3)
    pre = make_preconditioner("bj", matrix)
    warm = pcg(matrix, b, preconditioner=pre, tol=1e-8, max_iterations=2000).x

    def one_sample():
        return pcg(matrix, b * 1.01, x0=warm, preconditioner=pre,
                   tol=1e-8, max_iterations=2000)

    res = benchmark.pedantic(one_sample, rounds=2, iterations=1)
    assert res.converged
