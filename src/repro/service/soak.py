"""Soak campaign: one seeded chaos campaign, three scenarios, one audit.

``python -m repro batch soak --scenario NAME`` drives the whole
durability story in one command. Every scenario runs the same body: it
arms the fault plans, starts :data:`SCHEDULERS` long-lived scheduler
*child processes* on the queue, submits a seeded mixed-priority
campaign (clean jobs, crash-then-recover jobs, duplicate specs for
cache hits, poison jobs destined for quarantine) and cancels two of
them, SIGKILLs a scheduler that holds work in flight — orphaning its
daemon workers, which keep heartbeating until their attempt ends, the
genuine zombie scenario lease fencing exists for — waits until no job
is open, and hands the directory to
:func:`repro.service.audit.audit_journal` with ``final=True``.

:data:`SCENARIOS` holds what differs between campaigns:

* ``clean`` — no faults, no kill: the baseline throughput;
* ``storage`` — the storage fault injector
  (:mod:`repro.service.chaos`) armed in every scheduler and worker,
  plus one scheduler kill;
* ``api`` — the campaign goes through the HTTP front-end
  (:mod:`repro.service.http`) by a retrying
  :class:`~repro.service.netclient.ServiceClient` with *both* chaos
  layers armed — storage faults in the schedulers, network faults in
  the server — plus one SIGTERM graceful drain and restart of the
  server. The network may lie, the disks may fail, processes may die,
  and the journal must still show exactly-once completion.

The campaign is seeded end to end: the job mix, the fault plans, the
cancellations and the kill point all derive from one ``seed`` via
:func:`repro.util.rng.derive_seed`, so a soak that passes (zero
audit violations) passes reproducibly. The *timings* of kills vary
with machine load, which is the point — the invariants must hold for
every interleaving, and the auditor checks invariants, not traces.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.audit import audit_journal
from repro.service.chaos import (
    IOFaultInjector,
    IOFaultPlan,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.service.client import BatchClient
from repro.service.http import (
    DRAIN_GRACE_S,
    ServiceConfig,
    run_server,
    wait_for_server,
)
from repro.service.netclient import ClientRetry, ServiceClient
from repro.service.pool import WorkerPool, _start_method
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec, JobState, RetryPolicy
from repro.service.store import ResultStore
from repro.util.rng import derive_seed

#: Long-lived scheduler processes sharing the queue.
SCHEDULERS = 2
#: Worker processes per scheduler.
WORKERS = 2
#: Lease time-to-live of the campaign's schedulers [s].
LEASE_TTL = 1.5
#: Per-attempt wall-clock budget [s].
JOB_TIMEOUT_S = 120.0
#: The campaign stops waiting for the queue to drain after this [s].
MAX_WAIT_S = 900.0
#: Driver poll interval: drain check, kill point, scheduler liveness [s].
POLL_S = 0.2


@dataclass(frozen=True)
class Scenario:
    """What one soak campaign varies; the rest are the constants above."""

    #: ``"queue"`` submits in-process; ``"http"`` through a served API.
    transport: str
    #: Simulation steps per job.
    steps: int
    #: Storage fault probability per IO operation (0 disarms the seam).
    fault_rate: float
    #: Network fault probability per HTTP request (0 disarms the seam).
    net_fault_rate: float
    #: Schedulers SIGKILLed while they hold work in flight.
    scheduler_kills: int
    #: Mid-campaign SIGTERM drains and restarts of the HTTP server.
    server_drains: int


SCENARIOS = {
    "clean": Scenario("queue", 3, 0.0, 0.0, 0, 0),
    "storage": Scenario("queue", 3, 0.03, 0.0, 1, 0),
    "api": Scenario("http", 2, 0.03, 0.08, 1, 1),
}


def build_job_mix(
    jobs: int, seed: int, *, steps: int = 3
) -> list[tuple[JobSpec, int, RetryPolicy]]:
    """Seeded mixed campaign: (spec, priority, retry) per job.

    Roughly 60% clean runs, 15% duplicates of earlier clean specs (the
    result cache must absorb them), 15% crash-then-recover jobs
    (``kill_once`` hard-kills the first attempt; the retry resumes from
    checkpoint), and 10% poison jobs (every attempt dies identically —
    they must end *quarantined*, not retried forever).
    """
    rng = np.random.default_rng(derive_seed(seed, "soak-mix"))
    mix: list[tuple[JobSpec, int, RetryPolicy]] = []
    clean: list[JobSpec] = []
    for i in range(jobs):
        priority = int(rng.integers(0, 3))
        roll = rng.random()
        if roll < 0.60 or not clean:
            spec = JobSpec(
                model="wall", steps=steps, checkpoint_every=1,
                seed=int(rng.integers(0, 1_000_000)), tag=f"soak-{i}",
            )
            clean.append(spec)
            retry = RetryPolicy(max_attempts=3, seed=seed)
        elif roll < 0.75:
            spec = clean[int(rng.integers(0, len(clean)))]
            retry = RetryPolicy(max_attempts=3, seed=seed)
        elif roll < 0.90:
            spec = JobSpec(
                model="wall", steps=steps, checkpoint_every=1,
                kill_at_step=1, kill_once=True,
                seed=int(rng.integers(0, 1_000_000)), tag=f"soak-kill-{i}",
            )
            retry = RetryPolicy(
                max_attempts=4, backoff_s=0.05, jitter=0.5, seed=seed
            )
        else:
            spec = JobSpec(
                model="wall", steps=steps, checkpoint_every=1,
                kill_at_step=1, kill_once=False,
                seed=int(rng.integers(0, 1_000_000)), tag=f"soak-poison-{i}",
            )
            retry = RetryPolicy(max_attempts=2, seed=seed)
        mix.append((spec, priority, retry))
    return mix


def _scheduler_service(root: str) -> None:
    """Long-lived scheduler child: drain, linger, drain — until SIGTERM.

    It keeps polling because jobs may arrive while it runs, and each
    ``pool.run`` starts by recovering tickets whose lease expired, so a
    killed sibling's orphans are picked up here. The chaos layer is
    re-armed from the environment: the driver keeps *itself* unfaulted,
    and a forked child inherits that decision unless it re-reads the
    environment. SIGTERM flips the pool's graceful-drain hook: in-flight
    attempts finish, nothing new is claimed, and the process exits 0
    with its tickets either done or still cleanly queued.
    """
    IOFaultInjector.install_from_env()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    base = Path(root)
    pool = WorkerPool(
        JobQueue(base / "queue", lease_ttl=LEASE_TTL),
        ResultStore(base / "store"),
        base / "scratch",
        n_workers=WORKERS, job_timeout=JOB_TIMEOUT_S,
    )
    while not stop.is_set():
        pool.run(stop=stop.is_set)
        stop.wait(0.25)


def _server_process(root: str, config: ServiceConfig) -> None:
    """HTTP server child: storage-clean, network-chaotic.

    The server must never tear the batch directory itself — its writes
    (dedup index, info file, metrics) ride the same atomic helpers the
    queue uses, and keeping it storage-clean pins the blame: any failed
    write in an API soak came from a scheduler under storage chaos,
    any lost response from the server under network chaos
    (``run_server`` arms that seam from the environment).
    """
    IOFaultInjector.install(None)
    raise SystemExit(run_server(root, config))


def _open_jobs(counts: dict) -> int:
    """Jobs not yet terminal."""
    return sum(n for state, n in counts.items() if state not in JobState.TERMINAL)


def _busy_owners(queue: JobQueue) -> set[str]:
    """Owners (``sched-<pid>``) of the live leases: who has work in flight."""
    leases = (queue.leases.peek(p.stem) for p in queue.leases.root.glob("*.json"))
    return {lease.owner for lease in leases if lease and not lease.expired()}


def run_soak(
    root: str | Path,
    scenario: str = "storage",
    *,
    jobs: int = 24,
    seed: int = 0,
    log=None,
) -> dict:
    """Run one soak campaign of ``SCENARIOS[scenario]``; returns its summary.

    The summary's ``audit`` is the ``final=True`` audit: ``drained`` and
    zero violations are the pass criterion, with every server drain
    exiting 0.
    """
    sc = SCENARIOS[scenario]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    log = log or (lambda msg: None)
    t0 = time.time()
    # The driver submits and audits; it must stay chaos-clean even
    # though it sets the env plans for its children, whatever its caller
    # armed.
    IOFaultInjector.install(None)
    NetFaultInjector.install(None)
    batch = BatchClient(root)
    journal = batch.queue.journal
    io_plan = IOFaultPlan(seed=seed, rate=sc.fault_rate) if sc.fault_rate else None
    net_plan = NetFaultPlan(
        seed=seed, rate=sc.net_fault_rate, latency_s=0.02,
    ) if sc.net_fault_rate else None
    for plan, injector, name in (
        (io_plan, IOFaultInjector, "chaos-plan.json"),
        (net_plan, NetFaultInjector, "net-chaos-plan.json"),
    ):
        if plan is not None:
            os.environ[injector.ENV] = str(plan.save(root / name))
    log(f"scenario {scenario}: {sc}")

    ctx = multiprocessing.get_context(_start_method())

    def spawn(target, *args):
        proc = ctx.Process(target=target, args=(str(root), *args))
        proc.start()
        return proc

    config = ServiceConfig(
        # headroom over the defaults: a soak hammers one tenant
        rate_capacity=200.0, rate_refill_per_s=500.0,
        max_queue_depth=max(512, jobs * 4),
        shed_queue_depth=max(1024, jobs * 8),
    )

    def spawn_server():
        proc = spawn(_server_process, config)
        info = wait_for_server(root, timeout=30.0)
        log(f"server up: pid {proc.pid} on {info['host']}:{info['port']}")
        return proc, ServiceClient.from_root(
            root, tenant="soak", timeout=5.0,
            retry=ClientRetry(attempts=12, backoff_s=0.05, seed=seed),
        )

    def drain_server(proc) -> dict:
        td = time.monotonic()
        os.kill(proc.pid, signal.SIGTERM)
        proc.join(timeout=DRAIN_GRACE_S + 15.0)
        return {"drain_s": time.monotonic() - td, "exit_code": proc.exitcode}

    # the scenario's transport: in-process, or the served API (whose
    # client is replaced with the server on every restart; ``spent``
    # keeps the retired clients' transport stats)
    http = sc.transport == "http"
    server = client = None
    spent: Counter = Counter()

    def submit(spec, priority, retry) -> str:
        if http:
            return client.submit(spec, priority=priority, retry=retry)["job_id"]
        return batch.submit(spec, priority=priority, retry=retry).job_id

    def cancel(job_id: str) -> bool:
        return client.cancel(job_id)["cancelled"] if http else batch.cancel(job_id)

    def counts() -> dict:
        try:
            return client.jobs()["counts"] if http else batch.queue.counts()
        except Exception:  # noqa: BLE001 - restart window / giveup
            return batch.queue.counts()

    rng = np.random.default_rng(derive_seed(seed, "soak-driver"))

    def next_kill_at() -> int:
        # kill on progress the journal shows, not on a wall-clock guess
        # at this host's job latency: once a seeded number of tickets (at
        # least one per worker) has been claimed, work is in flight
        return journal.count("claimed") + int(rng.integers(WORKERS, 3 * WORKERS + 1))

    kill_at = next_kill_at()
    scheds = [spawn(_scheduler_service) for _ in range(SCHEDULERS)]
    log(f"{SCHEDULERS} scheduler(s) up: {[p.pid for p in scheds]}")
    drains: list[dict] = []
    kills = 0
    drained = False
    try:
        if http:
            server, client = spawn_server()
        job_ids = [
            submit(spec, priority, retry)
            for spec, priority, retry in build_job_mix(jobs, seed, steps=sc.steps)
        ]
        distinct = sorted(set(job_ids))
        log(f"submitted {len(job_ids)} jobs ({len(distinct)} distinct)")

        picks = rng.choice(len(distinct), size=2, replace=False) if jobs >= 10 else []
        cancelled = [distinct[i] for i in picks if cancel(distinct[i])]
        log(f"cancelled: {cancelled}")

        for n in range(sc.server_drains):
            drains.append(drain_server(server))
            log(f"server drain {n + 1}: exit {drains[-1]['exit_code']} "
                f"in {drains[-1]['drain_s']:.2f}s")
            spent.update(client.stats)
            server, client = spawn_server()

        deadline = time.monotonic() + MAX_WAIT_S
        while time.monotonic() < deadline:
            if _open_jobs(counts()) == 0:
                drained = True
                break
            for i, proc in enumerate(scheds):
                if not proc.is_alive():  # killed below, or a storage fault
                    log(f"scheduler {proc.pid} exited {proc.exitcode}; respawning")
                    scheds[i] = spawn(_scheduler_service)
            if kills < sc.scheduler_kills and journal.count("claimed") >= kill_at:
                busy = _busy_owners(batch.queue)
                for proc in scheds:
                    if f"sched-{proc.pid}" in busy:
                        os.kill(proc.pid, signal.SIGKILL)
                        proc.join()
                        kills += 1
                        kill_at = next_kill_at()
                        break
            time.sleep(POLL_S)
        log(f"campaign drained={drained}")
    finally:
        for proc in scheds:
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGTERM)
        for proc in scheds:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck attempt
                proc.terminate()
                proc.join()
        if server is not None and server.is_alive():
            drains.append(drain_server(server))
        if client is not None:
            spent.update(client.stats)
        os.environ.pop(IOFaultInjector.ENV, None)
        os.environ.pop(NetFaultInjector.ENV, None)

    return {
        "scenario": scenario,
        "jobs": jobs,
        "seed": seed,
        "steps": sc.steps,
        "distinct_jobs": len(distinct),
        "dedup_hits": len(job_ids) - len(distinct),
        "cancelled": cancelled,
        "scheduler_kills": kills,
        "drains": drains,
        "drained": drained,
        "client_stats": dict(spent),
        "io_fault_plan": None if io_plan is None else io_plan.to_dict(),
        "net_fault_plan": None if net_plan is None else net_plan.to_dict(),
        "duration_s": time.time() - t0,
        "counts": batch.queue.counts(),
        "audit": audit_journal(root, final=True),
    }
