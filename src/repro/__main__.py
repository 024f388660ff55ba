"""Command-line runner: ``python -m repro``.

Four subcommands share the entry point:

``run`` (the default — bare flags are routed to it, so every historical
invocation keeps working) builds one of the bundled workloads (or loads
a saved model), runs the chosen pipeline in the foreground, and prints
the per-module time report plus an ASCII rendering of the final state.
``--trace out.json`` records a per-step span trace (Chrome/Perfetto
trace-event JSON); ``--metrics`` prints
the engine's metrics snapshot after the run.

``batch`` is the batch simulation service (:mod:`repro.service`):
submit jobs to a persistent queue, drain it with a crash-isolated
worker pool, and inspect cached results; its verbs are listed in
:mod:`repro.service.cli`. ``run`` and ``batch submit`` take the same
13 options that describe a run
(:func:`repro.service.spec.add_run_options`), and ``run`` executes
them through :func:`repro.engine.runner.execute_spec`, the function a
batch worker calls.

``report`` renders a paper-style per-module table (measured vs
modelled seconds, speedup) from a trace file written by ``--trace``,
or — given a batch directory — the service operator view (queue
depths, journal tallies, merged ``batch.*``/``http.*`` counters).

``lint`` runs the static analyzer (:mod:`repro.lint`): rules DDA001,
DDA004, DDA007 and DDA008 over the kernel-path modules, their call-graph
closure and the service path, with ``--json`` machine output and a
``--sync-inventory`` report.

Examples
--------
::

    python -m repro --model slope --steps 20 --preconditioner bj
    python -m repro run --model rocks --engine serial --steps 5
    python -m repro --load results/my_model --steps 50 --dynamic
    python -m repro run --model slope --trace results/run.json --metrics
    python -m repro report results/run.json
    python -m repro batch submit --dir results/batch --model slope
    python -m repro report results/batch
    python -m repro lint --json
"""

from __future__ import annotations

import argparse
import sys

def build_parser() -> argparse.ArgumentParser:
    from repro.core.state import ON_FAILURE
    from repro.engine.runner import RUN_ENGINES
    from repro.service.spec import add_run_options

    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the GPU-pipeline DDA reproduction on a workload.",
        epilog="Subcommands: 'run' (default, these flags) runs one "
               "foreground simulation; 'batch' is the batch service "
               "(python -m repro batch --help).",
    )
    res = add_run_options(p, engines=RUN_ENGINES, engine="gpu")
    p.add_argument("--n-domains", type=int, default=2, metavar="N",
                   help="domain count for --engine domain (the "
                        "decomposed path is bit-identical to serial "
                        "at every N)")
    p.add_argument("--save", metavar="STEM",
                   help="save the final state with repro.io.save_system")
    p.add_argument("--no-render", action="store_true",
                   help="skip the ASCII rendering of the final state")
    obs = p.add_argument_group("observability")
    obs.add_argument("--trace", metavar="PATH", dest="trace_path",
                     help="write a span trace as Chrome/Perfetto "
                          "trace-event JSON (render with 'python -m repro "
                          "report PATH')")
    obs.add_argument("--metrics", action="store_true", dest="show_metrics",
                     help="print the metrics snapshot (contact classes, CG "
                          "iteration histogram, fallback/rollback counters) "
                          "after the run")
    res.add_argument("--checkpoint-dir", metavar="DIR",
                     help="persist checkpoints (npz + checksum) to DIR")
    res.add_argument("--on-failure", choices=ON_FAILURE, default="raise",
                     help="'partial' returns the accepted prefix with a "
                          "failure report instead of raising")
    return p


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand; bare flags mean ``run`` (legacy CLI)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        from repro.service.cli import batch_main

        return batch_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.obs.report import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return run_main(argv)


def run_main(argv: list[str] | None = None) -> int:
    """The ``run`` subcommand: one foreground simulation."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n_domains < 1:
        parser.error(f"--n-domains must be >= 1, got {args.n_domains}")
    from repro.engine.base import REJECTION_CAUSES
    from repro.engine.runner import execute_spec
    from repro.obs.report import render_report, run_report
    from repro.obs.tracer import Tracer

    # the namespace passes for a JobSpec (same names): the batch
    # worker's path to the engine, plus the run-only resilience values
    tracer = Tracer(enabled=args.trace_path is not None)
    result, engine, _ = execute_spec(
        args, tracer=tracer, resilience=dict(
            checkpoint_dir=args.checkpoint_dir,
            on_failure=args.on_failure,
        ),
    )
    system = engine.system
    print(f"model: {system}", file=sys.stderr)
    if args.trace_path:
        path = tracer.write(args.trace_path)
        print(f"trace written: {path}", file=sys.stderr)

    print(render_report(run_report(result, {
        "engine": type(engine).__name__, "profile": engine.device.profile.name,
    })))
    counter = engine.metrics.counter
    rejected = {
        cause: counter(f"engine.step_rejected.{cause}").value
        for cause in REJECTION_CAUSES
    }
    causes = ", ".join(f"{n} {cause}" for cause, n in rejected.items() if n)
    print(
        f"CG iterations total: {result.total_cg_iterations} in accepted "
        f"attempts, {counter('engine.rejected_cg_iterations').value} in "
        f"{sum(rejected.values())} rejected"
        + (f" ({causes})" if causes else "")
        + f"; max displacement: {result.max_total_displacement():.3e} m"
    )
    degraded = sum(1 for s in result.steps if s.solver_rung > 0)
    skipped = engine.metrics.counter("solver.rungs_skipped").value
    if degraded or skipped:
        print(
            f"solver fallback engaged on {degraded}/{result.n_steps} steps "
            f"(max rung {result.max_solver_rung}); {skipped} rung solves "
            f"skipped as already decided"
        )
    if result.rollbacks:
        print(f"checkpoint rollbacks: {result.rollbacks}")
    if args.show_metrics and result.metrics is not None:
        from repro.obs.metrics import render_snapshot

        print()
        print(render_snapshot(result.metrics.snapshot()))
    if result.contract_violations:
        counts = ", ".join(
            f"{stage}={count}"
            for stage, count in sorted(result.contract_violations.items())
        )
        print(f"contract violations caught: {counts}")
    for warning in result.warnings:
        print(
            f"warning [step {warning.step}, {warning.guard}]: "
            f"{warning.message}",
            file=sys.stderr,
        )
    if not args.no_render:
        from repro.io.ascii_art import render_system

        print(render_system(system))
    if args.save:
        from repro.io.model_io import save_system

        paths = save_system(system, args.save)
        print(f"saved: {paths[0]}, {paths[1]}", file=sys.stderr)
    if result.failure is not None:
        print(f"RUN FAILED (partial result): {result.failure.summary()}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
