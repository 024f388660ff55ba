"""Pipeline smoke benchmark — machine-readable per-module times.

A deliberately small slope run on all three engines, written to
``results/BENCH_pipeline.json`` via the shared ``--json`` writer. This
seeds the perf trajectory: every later optimisation PR re-runs it and
diffs the per-module wall/modelled seconds against the committed
baseline.

Run with::

    PYTHONPATH=src python -m benchmarks.bench_pipeline_smoke [--json PATH] [--pr N]
"""

from __future__ import annotations

import time

from benchmarks.common import (
    bench_arg_parser,
    case1_controls,
    scaled_case1_system,
    write_bench_json,
)

#: Small enough for CI, large enough that every module does real work.
STEPS = 3
SPACING = 5.0
ENGINES = ("serial", "gpu", "hybrid")
#: Each engine's report is its fastest of this many runs: a half-second
#: run on a shared host is one scheduler hiccup away from +50 %, and the
#: CI gates on the wall/modelled ratios must not fire on that.
REPEATS = 3


def run_engine(engine_name: str) -> dict:
    from repro.engine.gpu_engine import GpuEngine
    from repro.engine.hybrid_engine import HybridEngine
    from repro.engine.serial_engine import SerialEngine

    system = scaled_case1_system(joint_spacing=SPACING, seed=7)
    controls = case1_controls()
    cls = {
        "serial": SerialEngine, "gpu": GpuEngine, "hybrid": HybridEngine,
    }[engine_name]
    engine = cls(system, controls)
    start = time.perf_counter()
    result = engine.run(steps=STEPS)
    wall_total = time.perf_counter() - start
    return {
        "n_blocks": int(system.n_blocks),
        "steps": result.n_steps,
        "wall_seconds_total": wall_total,
        "wall_seconds_per_module": dict(result.module_times.times),
        "modeled_seconds_per_module": result.modeled_module_times(),
        "total_cg_iterations": result.total_cg_iterations,
    }


def main(argv=None) -> int:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--pr", type=int, default=None,
        help="PR number of the trajectory point (default: last point's + 1)",
    )
    args = parser.parse_args(argv)
    payload = {
        "steps": STEPS,
        "joint_spacing": SPACING,
        "engines": {
            name: min(
                (run_engine(name) for _ in range(REPEATS)),
                key=lambda report: report["wall_seconds_total"],
            )
            for name in ENGINES
        },
    }
    # headline trajectory point: how close the serial pipeline's wall
    # time tracks the sum of its modelled per-module device seconds
    # (the host-overhead ratio the optimisation PRs drive down); the
    # gpu/hybrid presets' ratios ride along so CI can gate them too
    totals = {
        name: (data["wall_seconds_total"],
               sum(data["modeled_seconds_per_module"].values()))
        for name, data in payload["engines"].items()
    }
    for name, (wall, modelled) in totals.items():
        payload[f"{name}_wall_modelled_ratio"] = (
            wall / modelled if modelled > 0.0 else None
        )
    wall, modelled = totals.pop("serial")
    point = {
        "wall": wall, "modelled": modelled,
        **{name: {"wall": w, "modelled": m} for name, (w, m) in totals.items()},
    }
    if args.pr is not None:
        point["pr"] = args.pr
    path = write_bench_json(
        "pipeline", payload, path=args.json_path, trajectory=point
    )
    n_blocks = payload["engines"]["serial"]["n_blocks"]
    print(f"wrote {path} ({n_blocks} blocks, {STEPS} steps, "
          f"{len(ENGINES)} engines, serial wall/modelled "
          f"{payload['serial_wall_modelled_ratio']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
