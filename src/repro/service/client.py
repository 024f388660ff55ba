"""Programmatic facade over the batch service.

A :class:`BatchClient` owns one *batch directory* — queue, result
store, and per-job scratch space under a single root — and exposes the
submit/run/status/results verbs the ``python -m repro batch`` CLI maps
onto. Everything is plain files, so any number of clients (or a client
and a CLI) can point at the same directory across processes and
scheduler restarts.

.. code-block:: python

    from repro.service import BatchClient, JobSpec

    client = BatchClient("results/batch")
    client.submit(JobSpec(model="slope", steps=50, engine="serial"))
    client.run(n_workers=2)
    print(client.status())
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.io.batch_io import read_json
from repro.service.pool import WorkerPool
from repro.service.queue import JobQueue
from repro.service.spec import JobRecord, JobSpec, JobState, RetryPolicy
from repro.service.store import ResultStore


def overview(queue: JobQueue, store: ResultStore, records: list[JobRecord]) -> dict:
    """Job count per state, queue depths and cache counters of a batch
    directory, from one :meth:`JobQueue.records` walk."""
    return {
        "counts": queue.counts(records),
        "queue": queue.depths(records),
        "cache": store.stats(),
    }


def render_overview(view: dict) -> list[str]:
    """The text lines of an :func:`overview`."""
    counts = ", ".join(f"{s}={n}" for s, n in view["counts"].items() if n)
    depths, cache = view["queue"], view["cache"]
    age = depths["oldest_queued_age_s"]
    waiting = "" if age is None else f", oldest waiting {age:.1f}s"
    return [
        f"jobs: {counts or 'empty'}",
        f"queue: {depths['queued']} queued ({depths['deferred']} in "
        f"backoff), {depths['claimed']} claimed{waiting}",
        f"cache: {cache['hits']} hits, {cache['misses']} misses",
    ]


class BatchClient:
    """Submit, schedule, and inspect batches of simulation jobs."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # opening the queue never recovers (see JobQueue), so a client
        # stays a pure observer while another process drains the queue
        self.queue = JobQueue(self.root / "queue")
        self.store = ResultStore(self.root / "store")
        self.scratch_root = self.root / "scratch"
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        #: metrics snapshots of the most recent ``run`` call
        self.last_run_metrics: dict = {}
        self.last_job_metrics: dict = {}

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        priority: int = 0,
        retry: RetryPolicy | None = None,
        tenant: str = "",
    ) -> JobRecord:
        """Enqueue one job; returns its record (state ``queued``).

        Submission never consults the cache — the scheduler does, at
        claim time, so ``status`` after a run shows the hit explicitly.
        ``retry`` is the job's :class:`~repro.service.spec.RetryPolicy`
        (attempt budget, backoff, attempt deadline); ``None`` means the
        default policy.
        """
        return self.queue.submit(
            spec, priority=priority, retry=retry, tenant=tenant
        )

    def run(
        self,
        *,
        n_workers: int = 2,
        job_timeout: float | None = None,
        trace: bool = False,
        log=None,
    ) -> dict[str, int]:
        """Drain the queue with a worker pool; returns the run tallies.

        After the call, :attr:`last_run_metrics` holds the scheduler's
        metrics snapshot (dispatch outcomes, ``batch.cache_hits`` /
        ``batch.cache_misses``) and :attr:`last_job_metrics` the merged
        engine metrics of every job that finished in this run. With
        ``trace=True`` each successful attempt writes a Chrome-format
        trace into its scratch directory (``trace_path`` in the
        outcome).
        """
        pool = WorkerPool(
            self.queue,
            self.store,
            self.scratch_root,
            n_workers=n_workers,
            job_timeout=job_timeout,
            trace=trace,
            log=log,
        )
        tallies = pool.run()
        self.last_run_metrics = pool.metrics.snapshot()
        self.last_job_metrics = pool.aggregate_job_metrics()
        return tallies

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (running/terminal jobs are left alone).

        Cancellation is a tombstone consulted at claim, dispatch, and
        retry time (see :meth:`JobQueue.cancel`), so it holds even when
        a pool claims the job concurrently with this call.
        """
        return self.queue.cancel(job_id)

    # ------------------------------------------------------------------
    def job_row(self, record: JobRecord) -> dict:
        """One job's status row — the shape ``status()["jobs"]`` and the
        HTTP ``GET /v1/jobs/<id>`` both serve."""
        job_id = record.job_id
        lease = self.queue.leases.peek(job_id)
        now = time.time()
        return {
            "job_id": job_id,
            "state": record.state,
            "model": record.spec.load or record.spec.model,
            "engine": record.spec.engine,
            "steps": record.spec.steps,
            "priority": record.priority,
            "tenant": record.tenant,
            "attempts": record.attempts,
            "cached": record.cached,
            "error": record.error,
            "spec_hash": record.spec.spec_hash()[:12],
            "lease_epoch": record.lease_epoch,
            "not_before": record.not_before,
            "lease": None if lease is None else {
                "owner": lease.owner,
                "epoch": lease.epoch,
                "age_s": max(0.0, now - lease.renewed_at),
                "expired": lease.expired(now),
            },
        }

    def job(self, job_id: str) -> dict | None:
        """Status row of one job; ``None`` when no such record exists."""
        record = self.queue.load_record(job_id)
        return None if record is None else self.job_row(record)

    def status(self) -> dict:
        """The batch :func:`overview` plus per-job rows carrying
        lease/epoch detail, from one :meth:`JobQueue.records` walk, so
        each record file is parsed once per call.
        """
        records = self.queue.records()
        return {
            **overview(self.queue, self.store, records),
            "jobs": [self.job_row(r) for r in records],
        }

    def result(self, job: str | JobRecord) -> dict | None:
        """Final outcome of one job; ``None`` while non-terminal (an attempt
        that died between publish and save leaves an outcome, not a result).
        A terminal state is final, so a terminal :class:`JobRecord` is
        used as read; a job id, or a record that may be stale, is loaded."""
        record = job
        if isinstance(record, str) or record.state not in JobState.TERMINAL:
            record = self.queue.load_record(
                record if isinstance(record, str) else record.job_id
            )
        if record is None or record.state not in JobState.TERMINAL:
            return None
        return read_json(self.scratch_root / record.job_id / "outcome-final.json")

    def results(self) -> dict[str, dict | None]:
        """Final outcomes of every known job, keyed by job id, from one
        :meth:`JobQueue.records` walk (a job it reads as non-terminal has
        none yet)."""
        return {
            r.job_id: self.result(r) if r.state in JobState.TERMINAL else None
            for r in self.queue.records()
        }
