"""Command-line runner: ``python -m repro``.

Three subcommands share the entry point:

``run`` (the default — bare flags are routed to it, so every historical
invocation keeps working) builds one of the bundled workloads (or loads
a saved model), runs the chosen pipeline in the foreground, and prints
the per-module time report plus an ASCII rendering of the final state.
``--trace out.json`` records a per-step span trace (Chrome/Perfetto
trace-event JSON); ``--metrics`` prints
the engine's metrics snapshot after the run.

``batch`` is the batch simulation service (:mod:`repro.service`):
submit jobs to a persistent queue, drain it with a crash-isolated
worker pool, and inspect cached results. ``batch serve`` exposes the
directory over HTTP/JSON (idempotent submits, deadlines, backpressure;
docs/service-api.md). ``batch soak`` runs a chaos campaign (storage
faults + a scheduler kill; ``--scenario api`` drives it through the
HTTP server with network faults armed too) and ``batch audit`` replays the
job-event journal to prove exactly-once completion.

``report`` renders a paper-style per-module table (measured vs
modelled seconds, speedup) from a trace file written by ``--trace``,
or — given a batch directory — the service operator view (queue
depths, journal tallies, merged ``batch.*``/``http.*`` counters).

``lint`` runs the static analyzer (:mod:`repro.lint`): rules DDA001,
DDA004 and DDA006-DDA008 over the kernel-path modules, their call-graph
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
    python -m repro batch run --dir results/batch --workers 2
    python -m repro batch serve --dir results/batch --port 8080
    python -m repro batch soak --dir results/soak --scenario storage
    python -m repro batch soak --dir results/netsoak --scenario api
    python -m repro batch audit --dir results/soak --final
    python -m repro report results/soak
    python -m repro lint --json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

#: Subcommands accepted as the first CLI token; anything else is
#: treated as legacy ``run`` flags.
SUBCOMMANDS = ("run", "batch", "report", "lint")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the GPU-pipeline DDA reproduction on a workload.",
        epilog="Subcommands: 'run' (default, these flags) runs one "
               "foreground simulation; 'batch' is the batch service "
               "(python -m repro batch --help).",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--model", choices=("slope", "rocks", "wall", "rubble"),
        default="wall", help="bundled workload to build",
    )
    src.add_argument("--load", metavar="STEM",
                     help="load a model saved with repro.io.save_system")
    p.add_argument("--engine", choices=("gpu", "serial", "hybrid", "domain"),
                   default="gpu")
    p.add_argument("--profile", choices=("k40", "k20"), default="k40",
                   help="GPU device profile (gpu and hybrid engines)")
    p.add_argument("--n-domains", type=int, default=2, metavar="N",
                   help="domain count for --engine domain (the "
                        "decomposed path is bit-identical to serial "
                        "at every N)")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--dt", type=float, default=1e-3, help="time step [s]")
    p.add_argument("--dynamic", action="store_true",
                   help="keep velocities between steps (Case-2 mode)")
    p.add_argument(
        "--preconditioner", default="bj",
        choices=("none", "jacobi", "bj", "ssor", "ilu"),
    )
    p.add_argument("--size", type=float, default=6.0,
                   help="slope joint spacing / rubble block scale")
    p.add_argument("--seed", type=int, default=0)
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
    res = p.add_argument_group("resilience (long-run survival)")
    res.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     help="full-state checkpoint every N accepted steps "
                          "(0 = off; enables rollback recovery)")
    res.add_argument("--checkpoint-dir", metavar="DIR",
                     help="persist checkpoints (npz + checksum) to DIR")
    res.add_argument("--max-rollbacks", type=int, default=3, metavar="N",
                     help="fatal-failure rollbacks allowed per run")
    res.add_argument("--on-failure", choices=("raise", "partial"),
                     default="raise",
                     help="'partial' returns the accepted prefix with a "
                          "failure report instead of raising")
    res.add_argument("--no-solver-fallback", action="store_true",
                     help="disable the preconditioner fallback ladder")
    res.add_argument("--contracts", choices=("off", "cheap", "full"),
                     default="off", dest="contracts",
                     help="stage-contract checking level "
                          "(post-condition checks at every pipeline stage)")
    chaos = p.add_argument_group("chaos harness (fault injection)")
    chaos.add_argument("--inject-faults", type=int, metavar="SEED",
                       dest="inject_faults", default=None,
                       help="inject every registered fault class once, "
                            "deterministically from SEED (pair with "
                            "--contracts and --checkpoint-every to "
                            "exercise detection + recovery)")
    chaos.add_argument("--fault", action="append", dest="fault_names",
                       metavar="NAME", default=None,
                       help="restrict injection to this fault class "
                            "(repeatable; see repro.engine.chaos."
                            "FAULT_REGISTRY)")
    chaos.add_argument("--fault-step", type=int, default=1, metavar="N",
                       help="first step eligible for injection (default 1, "
                            "so a checkpoint exists to roll back to)")
    return p


def build_system(args: argparse.Namespace):
    # the argparse namespace is duck-typed like a JobSpec (model, load,
    # size, seed), so the batch service's runner does the work
    from repro.engine.runner import build_system_from_spec

    return build_system_from_spec(args)


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
    from repro.core.state import ResilienceControls, SimulationControls
    from repro.engine.base import REJECTION_CAUSES
    from repro.engine.runner import make_engine, make_fault_injector
    from repro.obs.tracer import Tracer
    from repro.util.tables import Table

    system = build_system(args)
    print(f"model: {system}", file=sys.stderr)
    controls = SimulationControls(
        time_step=args.dt,
        dynamic=args.dynamic,
        preconditioner=args.preconditioner,
        contract_level=args.contracts,
        resilience=ResilienceControls(
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            max_rollbacks=args.max_rollbacks,
            on_failure=args.on_failure,
            solver_fallback=not args.no_solver_fallback,
        ),
    )
    # the namespace is duck-typed like a JobSpec here too (engine,
    # profile, n_domains and the fault knobs): one preset factory
    injector = make_fault_injector(args)
    tracer = Tracer(enabled=args.trace_path is not None)
    engine = make_engine(
        args, system, controls, fault_injector=injector, tracer=tracer
    )
    result = engine.run(steps=args.steps)
    if args.trace_path:
        path = tracer.write(args.trace_path)
        print(f"trace written: {path}", file=sys.stderr)

    table = Table(
        f"{args.engine} pipeline, {result.n_steps} steps "
        f"({engine.device.profile.name})",
        ["module", "wall s", "modelled s"],
    )
    modeled = result.modeled_module_times()
    for module, wall in result.module_times.as_rows():
        table.add_row([module, wall, modeled.get(module, sum(modeled.values())
                       if module == "total" else 0.0)])
    print(table)
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
    if injector is not None:
        for fault in injector.injected:
            print(
                f"injected [step {fault.step}, {fault.stage}] "
                f"{fault.name}: {fault.detail}",
                file=sys.stderr,
            )
        if injector.pending:
            print(
                f"faults never applicable: {injector.pending}",
                file=sys.stderr,
            )
        detected = sum(result.contract_violations.values())
        if injector.injected and detected < len(injector.injected):
            print(
                f"CHAOS: only {detected}/{len(injector.injected)} injected "
                "faults were caught by contracts (silent absorption?)",
                file=sys.stderr,
            )
            return 2
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
