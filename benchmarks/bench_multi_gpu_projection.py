"""Extension — multi-GPU scaling, as executed by the DomainEngine.

"The next step of this work will focus on applying these efforts to
three-dimensional DDA on the multiple GPUs." This bench runs that step
on the scaled Case-1 slope: :class:`~repro.engine.domain_engine
.DomainEngine` partitions the blocks (:mod:`repro.domain.partition`) at
1/2/4/8 devices and runs the same physics at each count (bit-identical,
per-domain virtual-device ledgers), metering real halo bytes and
per-domain modelled seconds. The executed ledger is the one model of
the multi-device cost; results go to ``results/BENCH_multi.json`` via
the shared ``--json`` writer.

Run with::

    PYTHONPATH=src python -m benchmarks.bench_multi_gpu_projection [--json PATH]
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import (
    RESULTS_DIR,
    bench_arg_parser,
    case1_controls,
    scaled_case1_system,
    write_bench_json,
)
from repro.domain.partition import partition_blocks
from repro.engine.domain_engine import DomainEngine
from repro.io.reporting import ComparisonReport

DEVICE_COUNTS = (1, 2, 4, 8)
STEPS = 3
SPACING = 5.0
SEED = 7


def run_executable(n_domains: int) -> dict:
    """Run the DomainEngine at one device count; meter the halo."""
    system = scaled_case1_system(joint_spacing=SPACING, seed=SEED)
    engine = DomainEngine(system, case1_controls(), n_domains=n_domains)
    start = time.perf_counter()
    result = engine.run(steps=STEPS)
    wall = time.perf_counter() - start
    per_device = [dev.time_by_module() for dev in engine.domain_devices]
    return {
        "n_blocks": int(system.n_blocks),
        "wall_seconds": wall,
        "total_cg_iterations": result.total_cg_iterations,
        "halo_bytes": engine.halo_bytes,
        "cut_fraction": engine.partition_stats.cut_fraction,
        "imbalance": engine.partition_stats.imbalance,
        "cut_contacts": engine.metrics.gauge("domain.cut_contacts").value,
        "domain_device_seconds": engine.domain_device_times(),
        # critical-path metered times across the per-domain ledgers
        "modeled_halo_seconds": max(
            t.get("halo_exchange", 0.0) for t in per_device
        ),
        "modeled_solve_seconds": max(
            t.get("equation_solving", 0.0) for t in per_device
        ),
        "final_vertices_checksum": float(np.abs(system.vertices).sum()),
    }


def measure() -> dict:
    """The executed ledger at every device count."""
    curves = {str(g): {"executable": run_executable(g)} for g in DEVICE_COUNTS}
    single = curves["1"]["executable"]
    return {
        "steps": STEPS,
        "joint_spacing": SPACING,
        "n_blocks": single["n_blocks"],
        "single_cg_iterations": single["total_cg_iterations"],
        "device_counts": list(DEVICE_COUNTS),
        "curves": curves,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def measurement():
    payload = measure()
    report = ComparisonReport(
        "Multi-GPU projection",
        f"graph-partitioned Case-1 run ({payload['n_blocks']} blocks), "
        "executed DomainEngine ledger",
    )
    for g in DEVICE_COUNTS:
        row = payload["curves"][str(g)]["executable"]
        report.add(
            f"{g} GPU halo bytes (measured)", "grows with cut",
            int(row["halo_bytes"]),
        )
        report.add(
            f"{g} GPU solve seconds (modelled)", "shrinks with devices",
            round(row["modeled_solve_seconds"], 4),
        )
        report.add(
            f"{g} GPU halo seconds (modelled)", "grows with cut",
            round(row["modeled_halo_seconds"], 4),
        )
    report.note(
        "the executable DomainEngine runs the partition at each device "
        "count and stays bit-identical to the serial engine "
        "(tests/domain enforces the pin)"
    )
    report.write(RESULTS_DIR)
    print()
    print(report.render())
    return payload


def test_solve_share_shrinks_with_devices(measurement):
    solve = [
        measurement["curves"][str(g)]["executable"]["modeled_solve_seconds"]
        for g in DEVICE_COUNTS
    ]
    assert all(b < a for a, b in zip(solve, solve[1:]))


def test_single_device_pays_no_communication(measurement):
    row = measurement["curves"]["1"]["executable"]
    assert row["halo_bytes"] == 0.0
    assert row["modeled_halo_seconds"] == 0.0


def test_executable_physics_independent_of_device_count(measurement):
    rows = [measurement["curves"][str(g)]["executable"]
            for g in DEVICE_COUNTS]
    # bit-identical physics: same iterations and same final geometry
    assert len({r["total_cg_iterations"] for r in rows}) == 1
    assert len({r["final_vertices_checksum"] for r in rows}) == 1


def test_halo_traffic_grows_with_device_count(measurement):
    halo = [
        measurement["curves"][str(g)]["executable"]["halo_bytes"]
        for g in DEVICE_COUNTS
    ]
    assert all(b >= a for a, b in zip(halo, halo[1:]))
    assert halo[-1] > 0


def test_partition_benchmark(benchmark):
    system = scaled_case1_system(joint_spacing=3.0, seed=7)
    labels, stats = benchmark(partition_blocks, system, 4)
    assert labels.size == system.n_blocks
    assert stats.imbalance < 1.2


# ----------------------------------------------------------------------
# runnable entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = bench_arg_parser(__doc__).parse_args(argv)
    payload = measure()
    path = write_bench_json("multi", payload, path=args.json_path)
    print(
        f"wrote {path} ({payload['n_blocks']} blocks, {STEPS} steps, "
        f"device counts {DEVICE_COUNTS})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
