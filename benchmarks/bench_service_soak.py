"""Batch-service durability benchmark — soak throughput and recovery.

Three measurements over the lease-fenced batch service:

* ``clean`` — the ``clean`` soak scenario, a fault-free campaign: the
  baseline jobs/s of the queue + worker-pool + result-cache path. The
  durability layer (leases, heartbeats, journal appends, dir fsyncs)
  rides along, so this number *is* the taxed clean path the acceptance
  bar compares against.
* ``faulted`` — the ``storage`` scenario: the same seeded campaign with
  the storage chaos plan armed and one scheduler SIGKILLed with work in
  flight. Reports the drain/audit verdict and the wall-clock overhead
  ratio vs clean.
* ``recovery`` — the orphan re-claim latency: how long a reopening
  queue takes to notice a dead claimant's expired lease and hand the
  ticket to a new owner (median of several trials).

Run with::

    PYTHONPATH=src python -m benchmarks.bench_service_soak [--json PATH]
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from pathlib import Path

from benchmarks.common import bench_arg_parser, write_bench_json

#: Jobs per campaign (small: CI runs this).
JOBS = 12
SEED = 0
#: Orphan re-claim trials (median is reported).
RECOVERY_TRIALS = 5


def run_campaign(root: Path, scenario: str) -> dict:
    from repro.service.soak import run_soak

    summary = run_soak(root, scenario, jobs=JOBS, seed=SEED)
    wall = summary["duration_s"]
    return {
        "scenario": scenario,
        "jobs": summary["jobs"],
        "steps": summary["steps"],
        "wall_s": wall,
        "jobs_per_s": summary["jobs"] / wall if wall else None,
        "scheduler_kills": summary["scheduler_kills"],
        "drained": summary["drained"],
        "audit_ok": summary["audit"]["ok"],
        "counts": summary["counts"],
    }


def bench_recovery(scratch: Path) -> dict:
    """Median latency from queue reopen to orphan ticket re-claimed."""
    from repro.io.batch_io import write_json_atomic
    from repro.service.queue import JobQueue
    from repro.service.spec import JobSpec, JobState

    latencies = []
    for trial in range(RECOVERY_TRIALS):
        root = scratch / f"recovery-{trial}"
        q1 = JobQueue(root)
        record = q1.submit(
            JobSpec(model="wall", engine="serial", steps=2, tag=f"r{trial}")
        )
        claimed, ticket = q1.claim()
        claimed.state = JobState.RUNNING
        q1.save_record(claimed)
        # the claimant dies: its lease ages past its ttl and its
        # claimed ticket past the claim grace window
        old = time.time() - 5.0
        lease = q1.leases.peek(record.job_id)
        write_json_atomic(
            q1.leases.path(record.job_id),
            {**lease.to_dict(), "renewed_at": old - lease.ttl},
        )
        os.utime(q1.claimed_dir / ticket, (old, old))
        del q1

        start = time.perf_counter()
        q2 = JobQueue(root)
        q2.recover()
        got = q2.claim()
        latencies.append(time.perf_counter() - start)
        assert got is not None and got[0].job_id == record.job_id
        assert got[0].lease_epoch == claimed.lease_epoch + 1
    return {
        "trials": RECOVERY_TRIALS,
        "reclaim_s_median": statistics.median(latencies),
        "reclaim_s_max": max(latencies),
    }


def main(argv=None) -> int:
    args = bench_arg_parser(__doc__).parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-soak-") as tmp:
        scratch = Path(tmp)
        clean = run_campaign(scratch / "clean", "clean")
        faulted = run_campaign(scratch / "faulted", "storage")
        recovery = bench_recovery(scratch)
    overhead = (
        faulted["wall_s"] / clean["wall_s"] if clean["wall_s"] else None
    )
    payload = {
        "jobs": JOBS,
        "seed": SEED,
        "clean": clean,
        "faulted": faulted,
        "fault_overhead_ratio": overhead,
        "recovery": recovery,
    }
    path = write_bench_json("service", payload, args.json_path)
    print(
        f"clean  : {clean['jobs']} jobs in {clean['wall_s']:.2f} s "
        f"({clean['jobs_per_s']:.2f} jobs/s), audit "
        f"{'PASS' if clean['audit_ok'] else 'FAIL'}"
    )
    print(
        f"faulted: {faulted['jobs']} jobs in {faulted['wall_s']:.2f} s, "
        f"{faulted['scheduler_kills']} kill(s), audit "
        f"{'PASS' if faulted['audit_ok'] else 'FAIL'}, "
        f"overhead x{overhead:.2f}"
    )
    print(
        f"recovery: orphan re-claimed in "
        f"{recovery['reclaim_s_median'] * 1e3:.1f} ms median "
        f"({recovery['trials']} trials)"
    )
    print(f"report: {path}")
    ok = (
        clean["drained"] and clean["audit_ok"]
        and faulted["drained"] and faulted["audit_ok"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
