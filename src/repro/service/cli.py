"""``python -m repro batch`` — the batch-service command surface.

Verbs over a shared batch directory::

    python -m repro batch submit --dir results/batch --model slope --steps 50
    python -m repro batch run    --dir results/batch --workers 2
    python -m repro batch status --dir results/batch [--json]
    python -m repro batch results --dir results/batch [--json] [JOB_ID ...]
    python -m repro batch soak   --dir results/soak --scenario storage
    python -m repro batch soak   --dir results/netsoak --scenario api
    python -m repro batch audit  --dir results/soak [--final] [--json]
    python -m repro batch serve  --dir results/batch --port 8080

Every verb is a separate process invocation: submit from one shell, run
from another, kill the runner and run again — the on-disk queue and
result cache carry the state across. ``soak`` runs a full chaos
campaign, one row of :data:`repro.service.soak.SCENARIOS` (``storage``:
storage faults + a scheduler kill; ``api``: the same driven through the
HTTP front-end with network faults and a server drain too; ``clean``:
no faults) and ``audit`` replays the job-event journal to prove the
exactly-once invariants held. ``serve`` exposes the directory over
HTTP/JSON (see :mod:`repro.service.http` and docs/service-api.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.service.audit import audit_journal, format_report
from repro.service.chaos import IOFaultInjector
from repro.service.client import BatchClient, render_overview
from repro.service.http import ServiceConfig, run_server
from repro.service.soak import SCENARIOS, run_soak
from repro.service.spec import JobSpec, RetryPolicy, add_run_options
from repro.util.tables import Table


def build_batch_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro batch",
        description="Submit, schedule, and inspect batches of DDA runs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_dir(sp):
        sp.add_argument(
            "--dir", dest="batch_dir", default="results/batch", metavar="DIR",
            help="batch directory (queue + result cache + scratch; "
                 "default results/batch)",
        )

    s = sub.add_parser("submit", help="enqueue one job")
    add_dir(s)
    add_run_options(s)
    s.add_argument("--tag", help="free-form label (hashed)")
    s.add_argument("--priority", type=int, default=0,
                   help="0-999; higher runs sooner (FIFO within a priority)")
    s.add_argument("--max-retries", type=int, default=1,
                   help="extra attempts after a failed/crashed one")
    retry = s.add_argument_group("retry policy")
    retry.add_argument("--backoff", type=float, default=0.0, metavar="SEC",
                       help="base retry delay; grows exponentially with "
                            "seeded jitter (0 = retry immediately)")
    retry.add_argument("--attempt-deadline", type=float, default=None,
                       metavar="SEC",
                       help="per-attempt wall-clock budget (overrides the "
                            "pool's --job-timeout for this job)")
    crash = s.add_argument_group("worker crash (crash-isolation testing)")
    crash.add_argument("--kill-at-step", type=int, metavar="N",
                       help="hard-kill the worker process at this step")
    crash.add_argument("--kill-once", action="store_true",
                       help="with --kill-at-step: only the first attempt "
                            "dies; retries sail past the kill step")

    r = sub.add_parser("run", help="drain the queue with a worker pool")
    add_dir(r)
    r.add_argument("--workers", type=int, default=2)
    r.add_argument("--job-timeout", type=float, default=None, metavar="SEC",
                   help="terminate attempts running longer than this")
    r.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    r.add_argument("--trace", action="store_true",
                   help="write a Chrome-format span trace per successful "
                        "attempt (trace_path in each outcome)")
    r.add_argument("--metrics", action="store_true", dest="show_metrics",
                   help="print scheduler + merged per-job metrics after "
                        "the run")

    st = sub.add_parser("status", help="per-state counts and job table")
    add_dir(st)
    st.add_argument("--json", action="store_true", dest="as_json")

    res = sub.add_parser("results", help="final outcome of each job")
    add_dir(res)
    res.add_argument("job_ids", nargs="*", metavar="JOB_ID")
    res.add_argument("--json", action="store_true", dest="as_json")

    c = sub.add_parser("cancel", help="cancel a queued job")
    add_dir(c)
    c.add_argument("job_id", metavar="JOB_ID")

    a = sub.add_parser(
        "audit",
        help="replay the job-event journal; assert exactly-once invariants",
    )
    add_dir(a)
    a.add_argument("--final", action="store_true",
                   help="also require every submitted job to have reached "
                        "a terminal state (use after a drained campaign)")
    a.add_argument("--json", action="store_true", dest="as_json")

    k = sub.add_parser(
        "soak",
        help="chaos campaign: faults + scheduler kills + final audit",
    )
    add_dir(k)
    k.add_argument("--scenario", choices=tuple(SCENARIOS), default="storage",
                   help="clean (no faults), storage (storage faults + a "
                        "scheduler kill) or api (the same through the HTTP "
                        "server, plus network faults and a server drain)")
    k.add_argument("--jobs", type=int, default=24, help="campaign size")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--json", action="store_true", dest="as_json")
    k.add_argument("--quiet", action="store_true")

    v = sub.add_parser(
        "serve",
        help="HTTP/JSON front-end over the batch directory "
             "(submit/status/results/cancel over the network)",
    )
    add_dir(v)
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=0,
                   help="0 picks an ephemeral port (written to "
                        "<dir>/http.json)")
    v.add_argument("--max-queue-depth", type=int,
                   default=ServiceConfig.max_queue_depth,
                   help="submits are rejected (429) past this backlog")
    v.add_argument("--rate-capacity", type=float,
                   default=ServiceConfig.rate_capacity,
                   help="per-tenant token-bucket burst capacity")
    v.add_argument("--rate-refill", type=float,
                   default=ServiceConfig.rate_refill_per_s,
                   help="per-tenant token refill per second")
    return p


def spec_from_args(args: argparse.Namespace) -> JobSpec:
    """Build the JobSpec a ``batch submit`` invocation describes."""
    return JobSpec(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(JobSpec)
    })


def batch_main(argv: list[str] | None = None) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)
    IOFaultInjector.install_from_env()

    def log(msg: str) -> None:
        """Progress lines go to stderr (``--quiet`` drops them)."""
        if not getattr(args, "quiet", False):
            print(msg, file=sys.stderr)

    if args.command == "serve":
        try:
            config = ServiceConfig(
                host=args.host, port=args.port,
                max_queue_depth=args.max_queue_depth,
                rate_capacity=args.rate_capacity,
                rate_refill_per_s=args.rate_refill,
            )
        except ValueError as err:
            parser.error(f"serve: {err}")
        return run_server(args.batch_dir, config, log=log)

    if args.command == "submit":
        try:
            spec = spec_from_args(args)
            retry = RetryPolicy(
                max_attempts=args.max_retries + 1,
                backoff_s=args.backoff,
                attempt_deadline_s=args.attempt_deadline,
            )
        except ValueError as err:
            print(f"bad spec: {err}", file=sys.stderr)
            return 2
        record = BatchClient(args.batch_dir).submit(
            spec, priority=args.priority, retry=retry
        )
        print(f"submitted {record.job_id} "
              f"(spec {spec.spec_hash()[:12]}, priority {record.priority})")
        return 0

    # built only once the verb's arguments have validated: a usage error
    # leaves no batch directory behind
    client = BatchClient(args.batch_dir)

    if args.command == "run":
        tallies = client.run(
            n_workers=args.workers, job_timeout=args.job_timeout,
            trace=args.trace, log=log,
        )
        print(
            f"dispatched {tallies['dispatched']}, "
            f"succeeded {tallies['succeeded']} "
            f"(cache hits {tallies['cache_hits']}), "
            f"retried {tallies['retried']}, failed {tallies['failed']}, "
            f"quarantined {tallies['quarantined']}"
        )
        if args.show_metrics:
            from repro.obs.metrics import render_snapshot

            print()
            print("scheduler metrics")
            print(render_snapshot(client.last_run_metrics))
            if client.last_job_metrics:
                print()
                print("job metrics (merged across finished jobs)")
                print(render_snapshot(client.last_job_metrics))
        return 1 if tallies["failed"] or tallies["quarantined"] else 0

    if args.command == "status":
        status = client.status()
        if args.as_json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print("\n".join(render_overview(status)))
        table = Table("batch jobs", ["job", "state", "model", "engine",
                                     "steps", "attempts", "note"])
        for row in status["jobs"]:
            note = "cached" if row["cached"] else (row["error"] or "")
            table.add_row([
                row["job_id"], row["state"], row["model"], row["engine"],
                row["steps"], row["attempts"], note,
            ])
        print(table)
        return 0

    if args.command == "results":
        results = client.results()
        if args.job_ids:
            unknown = [j for j in args.job_ids if j not in results]
            if unknown:
                print(f"unknown job id(s): {unknown}", file=sys.stderr)
                return 1
            results = {j: results[j] for j in args.job_ids}
        if args.as_json:
            print(json.dumps(results, indent=2, sort_keys=True))
            return 0
        for job_id, outcome in results.items():
            if outcome is None:
                print(f"{job_id}: (no result yet)")
            elif outcome["status"] == "succeeded":
                print(
                    f"{job_id}: succeeded — "
                    f"{outcome.get('steps_executed', 0)} steps executed"
                    f"{' (cache hit)' if outcome.get('cached') else ''}, "
                    f"max displacement "
                    f"{outcome.get('max_total_displacement', 0.0):.3e} m"
                )
            else:
                print(
                    f"{job_id}: {outcome.get('status', 'failed')} — "
                    f"{outcome.get('error')}"
                )
        return 0

    if args.command == "cancel":
        if client.cancel(args.job_id):
            print(f"cancelled {args.job_id}")
            return 0
        print(f"{args.job_id}: not cancellable (unknown or not queued)",
              file=sys.stderr)
        return 1

    if args.command == "audit":
        report = audit_journal(args.batch_dir, final=args.final)
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report))
        return 0 if report["ok"] else 1

    if args.command == "soak":
        summary = run_soak(
            args.batch_dir, args.scenario,
            jobs=args.jobs, seed=args.seed, log=log,
        )
        clean_drains = all(d["exit_code"] == 0 for d in summary["drains"])
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            drains = ", ".join(
                f"exit {d['exit_code']} in {d['drain_s']:.2f}s"
                for d in summary["drains"]
            ) or "none"
            print(
                f"{summary['scenario']} soak: {summary['jobs']} jobs "
                f"({summary['distinct_jobs']} distinct), "
                f"{summary['scheduler_kills']} scheduler kill(s), "
                f"drained={summary['drained']} "
                f"in {summary['duration_s']:.1f}s"
            )
            print(f"server drains: {drains}")
            if summary["client_stats"]:
                print(f"client transport: {summary['client_stats']}")
            print(format_report(summary["audit"]))
        ok = summary["drained"] and summary["audit"]["ok"] and clean_drains
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")
