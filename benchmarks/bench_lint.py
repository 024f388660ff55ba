"""Static-analyzer benchmark — linter runtime and finding counts.

Times ``repro.lint`` over the whole package (best-of-N, so filesystem
cache noise doesn't pollute the trajectory) and records the per-rule
finding counts, which must stay at zero now that the tree is clean.
Also measures the scatter-write race sanitizer's toll on a small gpu
run, armed vs disarmed — the disabled path is one ``is None`` test per
scatter site and the armed overhead is the honest price of shadow
duplicate detection.

Run with::

    PYTHONPATH=src python -m benchmarks.bench_lint [--json PATH]
"""

from __future__ import annotations

import time

from benchmarks.common import (
    bench_arg_parser,
    case1_controls,
    scaled_case1_system,
    write_bench_json,
)

#: Lint repetitions (best-of is reported).
REPEATS = 5
#: Sanitizer-overhead run length (small: CI runs this).
STEPS = 3
SPACING = 5.0


def bench_linter() -> dict:
    from repro.lint.framework import run_lint

    runtimes = []
    per_pass: dict[str, list[float]] = {}
    report = None
    for _ in range(REPEATS):
        report = run_lint()
        runtimes.append(report.runtime_s)
        for code, seconds in report.pass_runtime_s.items():
            per_pass.setdefault(code, []).append(seconds)
    return {
        "files_scanned": report.files_scanned,
        "repeats": REPEATS,
        "runtime_s_best": min(runtimes),
        "runtime_s_mean": sum(runtimes) / len(runtimes),
        "pass_runtime_s_best": {
            code: min(times) for code, times in sorted(per_pass.items())
        },
        "counts_by_code": report.counts_by_code(),
        "new_findings": len(report.findings),
        "sync_points": len(report.sync_points),
    }


def timed_run(sanitize: bool) -> tuple[float, object]:
    from repro.engine.gpu_engine import GpuEngine

    system = scaled_case1_system(joint_spacing=SPACING, seed=7)
    controls = case1_controls()
    controls.sanitize = sanitize
    engine = GpuEngine(system, controls)
    start = time.perf_counter()
    engine.run(steps=STEPS)
    return time.perf_counter() - start, engine


def bench_sanitizer() -> dict:
    # warm-up run absorbs one-time numpy/import costs
    timed_run(sanitize=False)
    off = min(timed_run(sanitize=False)[0] for _ in range(3))
    walls_on = []
    engine = None
    for _ in range(3):
        wall, engine = timed_run(sanitize=True)
        walls_on.append(wall)
    on = min(walls_on)
    return {
        "steps": STEPS,
        "wall_s_sanitize_off": off,
        "wall_s_sanitize_on": on,
        "armed_overhead_ratio": on / off if off else None,
        "scatter_checks": engine.sanitizer.checks,
        "races": len(engine.sanitizer.findings),
    }


def main(argv=None) -> int:
    args = bench_arg_parser(__doc__).parse_args(argv)
    payload = {"lint": bench_linter(), "sanitizer": bench_sanitizer()}
    path = write_bench_json("lint", payload, args.json_path)
    lint = payload["lint"]
    san = payload["sanitizer"]
    print(
        f"lint: {lint['files_scanned']} files in "
        f"{lint['runtime_s_best'] * 1e3:.0f} ms (best of "
        f"{lint['repeats']}), {lint['new_findings']} finding(s)"
    )
    print(
        f"sanitizer: {san['scatter_checks']} checks, {san['races']} "
        f"race(s), armed overhead x{san['armed_overhead_ratio']:.2f} "
        f"over {san['steps']} steps"
    )
    print(f"report: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
