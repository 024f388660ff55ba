"""The ``service_http`` lap: a closed loop of two HTTP clients in waves.

One lap starts a :class:`~repro.service.http.BackgroundServer` and a
two-worker :class:`~repro.service.pool.WorkerPool` over a fresh batch
directory, then runs ``n_waves`` waves. In each wave both clients
submit one job at the same time, the scheduler drains the queue
(``pool.run()``), and both clients read their result. A client's next
request waits for its previous one, so a slow service receives less
load (closed loop, two clients).

Why waves and not a free-running scheduler: at this commit a scheduler
that polls ``JobQueue.claim()`` while a submit is in flight loses the
submit's ticket about one time in fifteen (``POST /v1/jobs`` answers
500 ``FileNotFoundError``; see README.md, "Known defects"). A benchmark
workload must be one on which no operation fails, so submits and claims
never overlap here. The traced lap adds a short free-running probe that
counts exactly those failures (``service.http.errors``,
``service.result_not_ready``) without retrying or hiding them.
"""

from __future__ import annotations

import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from benchmarks.harness.calibration import Calibrator
from benchmarks.harness.lap import peak_rss_mb
from benchmarks.harness.spans import SpanRecorder

N_CLIENTS = 2
N_WORKERS = 2
JOB_STEPS = 2
#: The time steps a lap's jobs draw from (one in-process reference each).
#: At these the 25-block wall takes no loop-2 retry; at 0.90, 0.95 and
#: 1.01 ms it takes three or four and a job's modelled time doubles, so a
#: continuous jitter made the workload a different one from seed to seed.
TIME_STEPS = (0.98e-3, 0.99e-3, 1.00e-3, 1.02e-3)
WAVES = 8
QUICK_WAVES = 3
#: Free-running probe submissions per client (traced lap only).
PROBE_JOBS = 8
QUICK_PROBE_JOBS = 2
#: A result that is not readable this long after the drain is a failure.
RESULT_TIMEOUT_S = 5.0


def campaign_plan(seed: int, n_waves: int):
    """Seeded job mix: ``(variants, waves)``.

    ``variants[k]`` is the index into :data:`TIME_STEPS` of fresh spec
    number ``k``. Four submissions in five are fresh specs; every fifth
    repeats the spec of a job finished in an earlier wave, alternately
    with ``dedup=True`` (the HTTP dedup index answers, same job id) and
    ``dedup=False`` (a new job the scheduler completes from the result
    store). Each wave is a list of ``(kind, spec_number)``.
    """
    rng = np.random.default_rng([seed, 99])
    variants = [
        int(v) for v in rng.integers(len(TIME_STEPS), size=n_waves * N_CLIENTS)
    ]
    waves, finished, fresh = [], [], 0
    for w in range(n_waves):
        wave = []
        for c in range(N_CLIENTS):
            i = w * N_CLIENTS + c
            if i % 5 == 4 and finished:
                kind = "dedup" if (i // 5) % 2 == 0 else "cache"
                wave.append((kind, int(rng.choice(finished))))
            else:
                wave.append(("fresh", fresh))
                fresh += 1
        waves.append(wave)
        finished.extend(k for kind, k in wave if kind == "fresh")
    return variants, waves


def job_spec(variant: int, tag: str):
    from repro import JobSpec

    return JobSpec(
        model="wall", engine="serial", steps=JOB_STEPS,
        time_step=TIME_STEPS[variant], tag=tag,
    )


def _timed(fn, *a, **kw):
    start = time.time()
    try:
        value, error = fn(*a, **kw), None
    except Exception as err:  # noqa: BLE001 - every client error is an outcome
        value, error = None, err
    return value, error, start, time.time()


class _Campaign:
    """State of one lap's closed loop (both phases of every wave)."""

    def __init__(self, seed, variants, clients, rec) -> None:
        self.seed = seed
        self.variants = variants
        self.clients = clients
        self.rec = rec
        self.job_of: dict[int, str] = {}     # spec number -> latest job id
        self.ops: list[dict] = []            # one per submission
        self.verbs: dict[str, list[float]] = {
            "submit": [], "dedup": [], "status": [],
        }

    def submit(self, client_no: int, kind: str, number: int, parent: int):
        """Phase 1 of a wave for one client. Never retried."""
        client = self.clients[client_no]
        spec = job_spec(self.variants[number], f"seed{self.seed}-{number}")
        reply, error, start, end = _timed(
            client.submit, spec, dedup=(kind != "cache")
        )
        self.rec.add("http.submit", start, end, parent=parent, kind=kind)
        op = {"kind": kind, "number": number, "client": client_no,
              "t_submit": start, "job_id": None, "failed": None}
        if error is not None:
            op["failed"] = f"submit: {error}"
        else:
            op["job_id"] = reply["job_id"]
            if kind == "fresh":
                self.job_of[number] = reply["job_id"]
                self.verbs["submit"].append(end - start)
            elif kind == "dedup":
                self.verbs["dedup"].append(end - start)
                if not reply["deduplicated"] or (
                    reply["job_id"] != self.job_of.get(number)
                ):
                    op["failed"] = "dedup: duplicate got a different job id"
            else:
                # a forced duplicate is a new job, and the dedup index
                # now points at it
                self.job_of[number] = reply["job_id"]
                self.verbs["submit"].append(end - start)
        return op

    def read(self, op: dict, parent: int) -> None:
        """Phase 2: status, then result until it is non-null."""
        if op["failed"] is not None:
            return
        client = self.clients[op["client"]]
        row, error, start, end = _timed(client.job, op["job_id"])
        self.rec.add("http.status", start, end, parent=parent)
        if error is not None:
            op["failed"] = f"status: {error}"
            return
        self.verbs["status"].append(end - start)
        if row["state"] != "succeeded":
            op["failed"] = f"terminal state {row['state']!r}"
            return
        t_succeeded = end
        deadline = t_succeeded + RESULT_TIMEOUT_S
        while True:
            reply, error, start, end = _timed(client.result, op["job_id"])
            self.rec.add("http.result", start, end, parent=parent)
            if error is not None:
                op["failed"] = f"result: {error}"
                return
            if reply.get("result") is not None:
                break
            op["not_ready"] = True
            if end > deadline:
                op["failed"] = "result never readable"
                return
            time.sleep(0.005)
        op["result_gap_s"] = end - t_succeeded
        op["t_result"] = end
        op["result"] = reply["result"]


def _reference(rec) -> list[dict]:
    """Direct, in-process execution of each spec variant: the oracle the
    service's answers are held to, and the source of modelled seconds
    (a job summary carries none)."""
    from repro.engine.runner import execute_spec

    out = []
    for v in range(len(TIME_STEPS)):
        with rec.span("reference.execute_spec", variant=v):
            _, engine, summary = execute_spec(job_spec(v, "reference"))
        out.append({
            "total_cg_iterations": summary["total_cg_iterations"],
            "max_total_displacement": summary["max_total_displacement"],
            "modelled_s": engine.device.total_time,
        })
    return out


def _free_running_probe(seed, clients, pool, n_jobs, rec) -> dict:
    """Count the submits a free-running scheduler loses (not retried)
    and the results that are null right after ``succeeded``."""
    done = threading.Event()

    def scheduler():
        while not done.is_set():
            pool.run(stop=done.is_set)
            time.sleep(pool.poll_interval)

    counts = {"submits": 0, "http_errors": 0, "result_not_ready": 0,
              "unfinished": 0}
    lock = threading.Lock()

    def client_loop(client_no: int):
        client = clients[client_no]
        for i in range(n_jobs):
            number = client_no * n_jobs + i
            reply, error, *_ = _timed(
                client.submit,
                job_spec(number % len(TIME_STEPS), f"seed{seed}-probe{number}"),
            )
            with lock:
                counts["submits"] += 1
                if error is not None:
                    counts["http_errors"] += 1
            if error is not None:
                continue
            deadline = time.time() + 2 * RESULT_TIMEOUT_S
            seen_null_after_success = False
            while time.time() < deadline:
                res, error, *_ = _timed(client.result, reply["job_id"])
                if error is None and res.get("result") is not None:
                    break
                if (error is None and res.get("state") == "succeeded"
                        and not seen_null_after_success):
                    seen_null_after_success = True
                    with lock:
                        counts["result_not_ready"] += 1
                time.sleep(0.01)
            else:
                with lock:
                    counts["unfinished"] += 1

    with rec.span("probe.free_running", jobs=N_CLIENTS * n_jobs):
        sched = threading.Thread(target=scheduler)
        sched.start()
        threads = [
            threading.Thread(target=client_loop, args=(c,))
            for c in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        sched.join()
    return counts


def service_lap(args) -> dict:
    rec = SpanRecorder()
    n_waves = args.steps or (QUICK_WAVES if args.quick else WAVES)
    work = Path(args.work).resolve() / f"svc-{time.time_ns()}"
    calibrator = Calibrator().start()
    with rec.span("lap", workload="service_http") as lap_span:
        with rec.span("import"):
            from repro.service.client import BatchClient
            from repro.service.http import BackgroundServer, ServiceConfig
            from repro.service.netclient import ClientRetry, ServiceClient
            from repro.service.pool import WorkerPool
        with rec.span("service_start"):
            # the benchmark measures the service, not its admission
            # control: the token bucket must never be the bottleneck
            server = BackgroundServer(work, ServiceConfig(
                rate_capacity=1e6, rate_refill_per_s=1e6,
            )).start()
        try:
            with rec.span("scheduler_start"):
                batch = BatchClient(work)
                pool = WorkerPool(
                    batch.queue, batch.store, batch.scratch_root,
                    n_workers=N_WORKERS,
                )
                clients = [
                    ServiceClient(
                        server.host, server.port, tenant=f"bench-{c}",
                        retry=ClientRetry(attempts=1),
                    )
                    for c in range(N_CLIENTS)
                ]
                ready = clients[0].readyz()
            t_ready = time.time()
            out = _run_campaign(args, rec, n_waves, batch, pool, clients)
        finally:
            server.stop()
            shutil.rmtree(work, ignore_errors=True)
    calibrator.stop()
    campaign = rec.find("campaign")[0]
    out["slowdown"] = {
        "setup": calibrator.slowdown(lap_span["start"], t_ready),
        "run": calibrator.slowdown(campaign["start"], campaign["end"]),
        "lap": calibrator.slowdown(lap_span["start"], lap_span["end"]),
    }
    out.update(
        workload="service_http", seed=args.seed, traced=bool(args.traced),
        ready=ready, t_ready=t_ready, peak_rss_mb=peak_rss_mb(),
        t_done=time.time(), spans=rec.spans,
    )
    return out


def _run_campaign(args, rec, n_waves, batch, pool, clients) -> dict:
    variants, waves = campaign_plan(args.seed, n_waves)
    campaign = _Campaign(args.seed, variants, clients, rec)
    drains = []
    with rec.span("campaign", waves=n_waves) as span, \
            ThreadPoolExecutor(N_CLIENTS) as threads:
        for wave in waves:
            with rec.span("wave") as wave_span:
                parent = wave_span["id"]
                ops = list(threads.map(
                    lambda c: campaign.submit(c, *wave[c], parent),
                    range(N_CLIENTS),
                ))
                with rec.span("scheduler.drain") as drain:
                    pool.run()
                drains.append(drain["end"] - drain["start"])
                list(threads.map(lambda op: campaign.read(op, parent), ops))
            campaign.ops.extend(ops)
    campaign_wall = span["end"] - span["start"]
    reference = _reference(rec)
    for op in campaign.ops:
        _check_result(op, reference[variants[op["number"]]])
    unique = [op for op in campaign.ops if op["kind"] == "fresh"]
    records = [
        batch.queue.load_record(op["job_id"])
        for op in unique if op["failed"] is None
    ]
    events, _torn = batch.queue.journal.events()
    job_ids = {op["job_id"] for op in campaign.ops if op["job_id"]}
    out = {
        "waves": n_waves,
        "ops": len(campaign.ops),
        "failed_ops": sum(op["failed"] is not None for op in campaign.ops),
        "failures": sorted(
            {op["failed"] for op in campaign.ops if op["failed"]}
        ),
        "unique_jobs": len(unique),
        "unique_done": sum(op["failed"] is None for op in unique),
        "steps_delivered": JOB_STEPS * sum(
            op["failed"] is None for op in unique
        ),
        "campaign_wall_s": campaign_wall,
        # None = failed attempt, which counts as missing any latency limit
        "job_latency_s": [
            op["t_result"] - op["t_submit"] if op["failed"] is None else None
            for op in unique
        ],
        "modelled_s_per_step": sum(
            reference[variants[op["number"]]]["modelled_s"] for op in unique
        ) / (JOB_STEPS * len(unique)),
        "reference": reference,
        "verbs_s": campaign.verbs,
        "drain_s": drains,
        "result_gap_s": [
            op["result_gap_s"] for op in campaign.ops if "result_gap_s" in op
        ],
        "result_not_ready": sum("not_ready" in op for op in campaign.ops),
        "queue_wait_s": [r.started_at - r.submitted_at for r in records],
        "worker_run_s": [r.finished_at - r.started_at for r in records],
        "engine_wall_s": [
            op["result"]["wall_seconds"] for op in unique
            if op["failed"] is None
        ],
        "journal_events_per_job": sum(
            e.get("job_id") in job_ids for e in events
        ) / max(1, len(job_ids)),
        "store_cache_hits": batch.store.stats()["hits"],
    }
    if args.traced:
        out["probe"] = _free_running_probe(
            args.seed, clients, pool,
            QUICK_PROBE_JOBS if args.quick else PROBE_JOBS, rec,
        )
    return out


def _check_result(op: dict, want: dict) -> None:
    """A job's answer must equal the direct execution of its spec."""
    if op["failed"] is not None:
        return
    got = op["result"]
    for key in ("total_cg_iterations", "max_total_displacement"):
        if got.get(key) != want[key]:
            op["failed"] = (
                f"wrong result: {key} {got.get(key)!r} != {want[key]!r}"
            )
            return
    if got.get("total_steps") != JOB_STEPS:
        op["failed"] = f"wrong result: total_steps {got.get('total_steps')!r}"
