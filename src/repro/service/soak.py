"""Soak campaign: storage faults + process kills, ended by the auditor.

``python -m repro batch soak`` drives the whole durability story in one
command: it submits a seeded mixed-priority campaign (clean jobs,
crash-then-recover jobs, duplicate specs for cache hits, poison jobs
destined for quarantine), arms the storage fault injector
(:mod:`repro.service.chaos`), runs scheduler rounds in *child
processes* and SIGKILLs some of them mid-drain — orphaning their
daemon workers, which keep heartbeating until their attempt ends, the
genuine zombie scenario lease fencing exists for — then keeps starting
fresh rounds until the queue drains, and finally hands the directory
to :func:`repro.service.audit.audit_journal` with ``final=True``.

The campaign is seeded end to end: the job mix, the fault plan, and
the kill schedule all derive from one ``--seed`` via
:func:`repro.engine.chaos.derive_seed`, so a soak that passes (zero
audit violations) passes reproducibly. The *timings* of kills vary
with machine load, which is the point — the invariants must hold for
every interleaving, and the auditor checks invariants, not traces.

The network variant (``python -m repro batch soak --api``) layers the
HTTP front-end on top: jobs are submitted, cancelled, and polled
through :mod:`repro.service.http` by a retrying
:class:`~repro.service.netclient.ServiceClient` while *both* chaos
layers are armed — storage faults in the scheduler processes, network
faults in the server — plus one mid-campaign SIGTERM graceful drain and
restart of the server and a SIGKILL of a scheduler. The same final
audit gates it: the network may lie, the disks may tear, processes may
die, and the journal must still show exactly-once completion.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np

from repro.engine.chaos import derive_seed
from repro.service.audit import audit_journal
from repro.service.chaos import (
    IOFaultInjector,
    IOFaultPlan,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.service.client import BatchClient
from repro.service.pool import WorkerPool, _start_method
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec, JobState, RetryPolicy
from repro.service.store import ResultStore


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


def _scheduler_pool(
    root: str, workers: int, lease_ttl: float, job_timeout: float
) -> WorkerPool:
    """The pool of one scheduler child process.

    Runs in a forked child, so the chaos layer is re-armed explicitly —
    the parent deliberately keeps *itself* unfaulted (it submits jobs
    and audits), and a forked child inherits that decision unless it
    re-reads the environment.
    """
    IOFaultInjector.install_from_env()
    base = Path(root)
    return WorkerPool(
        JobQueue(base / "queue", lease_ttl=lease_ttl),
        ResultStore(base / "store"),
        base / "scratch",
        n_workers=workers, job_timeout=job_timeout,
    )


def _scheduler_round(*pool_args) -> None:
    """One scheduler process: recover, drain, exit."""
    _scheduler_pool(*pool_args).run()


def _scheduler_service(*pool_args) -> None:
    """Long-lived scheduler child: drain, linger, drain — until SIGTERM.

    Unlike :func:`_scheduler_round` (which exits when the queue is
    momentarily empty) this keeps polling, because in an API campaign
    jobs arrive *while* schedulers run. SIGTERM flips the pool's
    graceful-drain hook: in-flight attempts finish, nothing new is
    claimed, and the process exits 0 with its tickets either done or
    still cleanly queued for the survivors.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    pool = _scheduler_pool(*pool_args)
    while not stop.is_set():
        pool.run(stop=stop.is_set)
        stop.wait(0.25)


def _server_process(root: str, config_dict: dict) -> None:
    """HTTP server child: storage-clean, network-chaotic.

    The server must never tear the batch directory itself — its writes
    (dedup index, info file, metrics) ride the same atomic helpers the
    queue uses, and keeping it storage-clean pins the blame: any torn
    record in an API soak came from a scheduler under storage chaos,
    any lost response from the server under network chaos
    (``run_server`` arms that seam from the environment).
    """
    from repro.service.http import ServiceConfig, run_server

    IOFaultInjector.install(None)
    raise SystemExit(run_server(root, ServiceConfig.from_dict(config_dict)))


class _Campaign:
    """What every soak shares: a chaos-clean driver whose children are
    armed through the environment, child spawning, the drain check, and
    the audited summary."""

    def __init__(
        self, root, seed: int, fault_rate: float, net_fault_rate: float, log
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log = log or (lambda msg: None)
        # The driver submits and audits; it must stay chaos-clean even
        # though it sets the env plans for its children — disarm
        # explicitly rather than relying on batch_io's lazy one-shot env
        # check, which only protects a driver that touched batch_io
        # before the env was set.
        IOFaultInjector.install(None)
        NetFaultInjector.install(None)
        self.client = BatchClient(self.root)  # submits / observes / counts
        self.t0 = time.time()
        self.ctx = multiprocessing.get_context(_start_method())
        self.io_plan = (
            IOFaultPlan(seed=seed, rate=fault_rate) if fault_rate > 0 else None
        )
        self.net_plan = (
            NetFaultPlan(
                seed=seed, rate=net_fault_rate,
                latency_s=0.02, slow_delay_s=0.005,
            ) if net_fault_rate > 0 else None
        )
        for plan, injector, name in (
            (self.io_plan, IOFaultInjector, "chaos-plan.json"),
            (self.net_plan, NetFaultInjector, "net-chaos-plan.json"),
        ):
            if plan is not None:
                os.environ[injector.ENV] = str(plan.save(self.root / name))
        self.log(
            f"armed chaos: storage rate {fault_rate}, network rate "
            f"{net_fault_rate}"
        )

    def disarm(self) -> None:
        """Stop exporting the fault plans to new child processes."""
        os.environ.pop(IOFaultInjector.ENV, None)
        os.environ.pop(NetFaultInjector.ENV, None)

    def spawn(self, target, *args):
        proc = self.ctx.Process(target=target, args=(str(self.root), *args))
        proc.start()
        return proc

    @staticmethod
    def open_jobs(counts: dict) -> int:
        """Jobs not yet terminal (the torn-record bucket included)."""
        return sum(
            n for state, n in counts.items() if state not in JobState.TERMINAL
        )

    def summary(self, **fields) -> dict:
        """The campaign tail: final counts plus the ``final=True`` audit
        that is every soak's pass criterion."""
        return {
            **fields,
            "duration_s": time.time() - self.t0,
            "counts": self.client.queue.counts(),
            "audit": audit_journal(self.root, final=True),
        }


def run_soak(
    root: str | Path,
    *,
    jobs: int = 24,
    seed: int = 0,
    workers: int = 2,
    fault_rate: float = 0.03,
    scheduler_kills: int = 1,
    lease_ttl: float = 2.0,
    steps: int = 3,
    max_rounds: int = 30,
    job_timeout: float = 120.0,
    log=None,
) -> dict:
    """Run one full soak campaign; returns the summary + audit report.

    ``scheduler_kills`` scheduler rounds are SIGKILLed mid-drain; the
    remaining rounds run to completion. ``fault_rate`` arms the storage
    chaos plan for every scheduler/worker process (0 disables it). The
    final audit runs with ``final=True``: zero violations is the pass
    criterion.
    """
    campaign = _Campaign(root, seed, fault_rate, 0.0, log)
    client, log = campaign.client, campaign.log

    mix = build_job_mix(jobs, seed, steps=steps)
    submitted = [
        client.queue.submit(spec, priority=priority, retry=retry)
        for spec, priority, retry in mix
    ]
    log(f"submitted {len(submitted)} jobs (seed {seed})")

    rng = np.random.default_rng(derive_seed(seed, "soak-driver"))
    cancel_ids = (
        [submitted[i].job_id
         for i in rng.choice(len(submitted), size=2, replace=False)]
        if jobs >= 10 else []
    )

    kills_left = scheduler_kills
    rounds = kills = 0
    drained = False
    try:
        while rounds < max_rounds:
            rounds += 1
            proc = campaign.spawn(
                _scheduler_round, workers, lease_ttl, job_timeout
            )
            if kills_left > 0:
                # kill on progress the journal shows, not on a wall-clock
                # guess at this host's job latency: once the round has
                # claimed a seeded number of tickets (at least one per
                # worker), work is in flight
                journal = client.queue.journal
                target = journal.count("claimed") + int(
                    rng.integers(workers, 3 * workers + 1)
                )
                while proc.is_alive() and journal.count("claimed") < target:
                    time.sleep(0.01)
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
                    kills += 1
                    log(f"round {rounds}: scheduler SIGKILLed (pid {proc.pid})")
                kills_left -= 1
            proc.join()
            if rounds == 1:
                for job_id in cancel_ids:
                    client.cancel(job_id)  # False when already past queued
            counts = client.queue.counts()
            open_jobs = campaign.open_jobs(counts)
            log(f"round {rounds}: {open_jobs} job(s) still open ({counts})")
            if open_jobs == 0:
                drained = True
                break
            # give orphaned leases time to expire before the next round
            time.sleep(lease_ttl * 0.6)
    finally:
        campaign.disarm()

    plan = campaign.io_plan
    return campaign.summary(
        jobs=jobs,
        seed=seed,
        rounds=rounds,
        scheduler_kills=kills,
        cancelled=cancel_ids,
        drained=drained,
        fault_plan=None if plan is None else plan.to_dict(),
    )


# ----------------------------------------------------------------------
# network soak: the same campaign driven through the HTTP front-end
# ----------------------------------------------------------------------
def run_api_soak(
    root: str | Path,
    *,
    jobs: int = 120,
    seed: int = 0,
    schedulers: int = 2,
    workers: int = 2,
    fault_rate: float = 0.03,
    net_fault_rate: float = 0.08,
    scheduler_kills: int = 1,
    sigterm_drains: int = 1,
    lease_ttl: float = 2.0,
    steps: int = 2,
    job_timeout: float = 120.0,
    max_wait_s: float = 900.0,
    log=None,
) -> dict:
    """Drive a mixed campaign through the HTTP API under double chaos.

    ``schedulers`` independent scheduler processes share the queue via
    lease fencing while one HTTP server process fields a retrying
    client's submits/cancels/polls. Mid-campaign the server takes
    ``sigterm_drains`` SIGTERM graceful drains (it must exit 0 and come
    back without losing a job) and ``scheduler_kills`` schedulers are
    SIGKILLed (replacements are spawned). Returns the summary; the
    embedded final audit is the pass criterion.
    """
    from repro.service.http import ServiceConfig, wait_for_server
    from repro.service.netclient import ClientRetry, ServiceClient

    campaign = _Campaign(root, seed, fault_rate, net_fault_rate, log)
    root, log = campaign.root, campaign.log

    config = ServiceConfig(
        # headroom over the defaults: a soak hammers one tenant
        rate_capacity=200.0, rate_refill_per_s=500.0,
        max_queue_depth=max(512, jobs * 4),
        shed_queue_depth=max(1024, jobs * 8),
        shed_lease_expired_rate=1e9,  # scheduler kills are the *point*
        drain_grace_s=10.0,
    )

    def spawn_server():
        proc = campaign.spawn(_server_process, config.to_dict())
        info = wait_for_server(root, timeout=30.0)
        log(f"server up: pid {proc.pid} on {info['host']}:{info['port']}")
        return proc

    def spawn_scheduler():
        return campaign.spawn(
            _scheduler_service, workers, lease_ttl, job_timeout
        )

    def drain_server(proc) -> dict:
        td = time.monotonic()
        os.kill(proc.pid, signal.SIGTERM)
        proc.join(timeout=config.drain_grace_s + 15.0)
        return {
            "drain_s": time.monotonic() - td, "exit_code": proc.exitcode,
        }

    def new_client():
        return ServiceClient.from_root(
            root, tenant="soak",
            timeout=5.0,
            retry=ClientRetry(attempts=12, backoff_s=0.05, seed=seed),
        )

    rng = np.random.default_rng(derive_seed(seed, "api-soak-driver"))
    mix = build_job_mix(jobs, seed, steps=steps)
    server = spawn_server()
    scheds = [spawn_scheduler() for _ in range(schedulers)]
    log(f"{schedulers} scheduler(s) up: {[p.pid for p in scheds]}")
    client = new_client()

    drains: list[dict] = []
    kills = 0
    drained = False
    try:
        job_ids: list[str] = []
        dedup_hits = 0
        for spec, priority, retry in mix:
            resp = client.submit(spec, priority=priority, retry=retry)
            job_ids.append(resp["job_id"])
            if resp.get("deduplicated"):
                dedup_hits += 1
        distinct = sorted(set(job_ids))
        log(
            f"submitted {len(job_ids)} jobs over HTTP "
            f"({len(distinct)} distinct, {dedup_hits} dedup hits, "
            f"{client.stats['retries']} transport retries)"
        )

        cancelled: list[str] = []
        if jobs >= 10:
            for i in rng.choice(len(distinct), size=2, replace=False):
                resp = client.cancel(distinct[int(i)])
                if resp.get("cancelled"):
                    cancelled.append(distinct[int(i)])
            log(f"cancelled via API: {cancelled or 'none (already claimed)'}")

        for n in range(sigterm_drains):
            time.sleep(float(rng.uniform(0.5, 1.5)))
            drains.append(drain_server(server))
            log(
                f"server drain {n + 1}: exit {drains[-1]['exit_code']} "
                f"in {drains[-1]['drain_s']:.2f}s"
            )
            server = spawn_server()
            client = new_client()

        for _ in range(scheduler_kills):
            victim = int(rng.integers(0, len(scheds)))
            proc = scheds[victim]
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join()
                kills += 1
                log(f"scheduler SIGKILLed (pid {proc.pid}); spawning "
                    "replacement")
            scheds[victim] = spawn_scheduler()

        deadline = time.monotonic() + max_wait_s
        while time.monotonic() < deadline:
            try:
                counts = client.jobs()["counts"]
            except Exception:  # noqa: BLE001 - restart window / giveup
                counts = campaign.client.queue.counts()
            if campaign.open_jobs(counts) == 0:
                drained = True
                break
            time.sleep(1.0)
        log(f"campaign drained={drained} "
            f"(client stats: {client.stats})")
    finally:
        for proc in scheds:
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGTERM)
        for proc in scheds:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck attempt
                proc.terminate()
                proc.join()
        if server.is_alive():
            drains.append(drain_server(server))
        campaign.disarm()

    io_plan, net_plan = campaign.io_plan, campaign.net_plan
    return campaign.summary(
        mode="api",
        jobs=jobs,
        seed=seed,
        schedulers=schedulers,
        distinct_jobs=len(distinct),
        dedup_hits=dedup_hits,
        cancelled=cancelled,
        scheduler_kills=kills,
        drains=drains,
        drained=drained,
        client_stats=client.stats,
        io_fault_plan=None if io_plan is None else io_plan.to_dict(),
        net_fault_plan=None if net_plan is None else net_plan.to_dict(),
    )
