"""Crash-isolated scheduling: one process per job, retry from checkpoint.

The pool claims tickets from the :class:`JobQueue` and runs each job's
attempt in its own ``multiprocessing`` process. The process boundary is
the isolation guarantee: a job that segfaults, NaN-blows, calls
``os._exit``, or is OOM-killed takes down only its own process — the
scheduler notices the death (no outcome file), logs the attempt, and
either requeues the job (next attempt resumes from the newest valid
checkpoint) or exhausts its :class:`~repro.service.spec.RetryPolicy`.
Sibling jobs never observe any of it.

Exactly-once completion is enforced here, not assumed: every terminal
transition goes through :meth:`JobQueue.finalize` carrying the fencing
epoch this pool claimed the job under. A pool (or worker) whose claim
was superseded — its scheduler stalled past the lease ttl and another
scheduler re-claimed the job — gets its late write rejected and
journalled as ``fenced`` instead of double-completing the job.

Retry behaviour is data (:class:`~repro.service.spec.RetryPolicy`):
exhausting the attempt budget on a *reproducible* failure (every
attempt died with the same error) quarantines the job — a poison job
is separated from jobs that merely had bad luck — while mixed failures
mark it ``failed``. Retries respect the policy's exponential backoff:
the record's ``not_before`` keeps the ticket unclaimable until the
delay elapses.

Before spawning anything the pool consults the :class:`ResultStore`:
a spec whose hash is already cached completes instantly as a cache hit
with zero steps executed. The scheduler also tolerates the storage
chaos layer (:mod:`repro.service.chaos`): an injected IO fault while
claiming or finishing abandons that one slot — the job's lease expires
and recovery requeues it — instead of taking the whole drain down.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path

from repro.io.batch_io import get_io_chaos, read_json, write_json_atomic
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.service.queue import JobQueue
from repro.service.spec import JobRecord, JobState
from repro.service.store import ResultStore
from repro.service.worker import worker_entry


def _start_method() -> str:
    """``fork`` where available (fast, Linux); ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class _Slot:
    """One in-flight job attempt."""

    process: multiprocessing.Process
    record: JobRecord
    ticket: str
    outcome_path: Path
    started: float
    epoch: int
    deadline: float | None


class WorkerPool:
    """Drains a job queue with ``n_workers`` isolated worker processes."""

    #: Scheduling tick [s]: idle polling, deadline and ``stop`` checks.
    poll_interval = 0.02

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        scratch_root: str | Path,
        *,
        n_workers: int = 2,
        job_timeout: float | None = None,
        trace: bool = False,
        log=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.queue = queue
        self.store = store
        self.scratch_root = Path(scratch_root)
        self.n_workers = n_workers
        self.job_timeout = job_timeout
        #: when True, each successful attempt writes a Chrome-format
        #: trace into its scratch dir (pool-level knob — deliberately
        #: not part of the spec, so cache hashes are unaffected)
        self.trace = trace
        self._ctx = multiprocessing.get_context(_start_method())
        self._log = log or (lambda msg: None)
        #: per-run tallies (reset at each ``run`` call)
        self.stats: dict[str, int] = self._zero_stats()
        #: scheduler-side metrics registry (dispatch outcomes, cache
        #: hit/miss, durability events); accumulates across ``run`` calls
        self.metrics = MetricsRegistry()
        for name in (
            "batch.cache_hits", "batch.cache_misses",
            "batch.lease_expired", "batch.fenced_writes",
            "batch.io_faults", "batch.worker_late_imports",
        ):
            self.metrics.counter(name)
        # durability counters live queue-side (recover/finalize) and in
        # the storage injector; bind them to this registry
        self.queue.metrics = self.metrics
        injector = get_io_chaos()
        if injector is not None:
            injector.bind_metrics(self.metrics)
        #: per-job engine metrics snapshots keyed by job_id, rolled up
        #: from each successful outcome; ``aggregate_job_metrics()``
        #: merges them into one snapshot
        self.job_metrics: dict[str, dict] = {}

    @staticmethod
    def _zero_stats() -> dict[str, int]:
        return {
            "dispatched": 0, "cache_hits": 0,
            "succeeded": 0, "failed": 0, "retried": 0, "cancelled": 0,
            "quarantined": 0, "fenced": 0,
        }

    def _tally(self, key: str) -> None:
        """Bump a per-run stat and its ``batch.<key>`` metrics counter."""
        self.stats[key] += 1
        self.metrics.inc(f"batch.{key}")

    def aggregate_job_metrics(self) -> dict:
        """One snapshot merging every finished job's engine metrics."""
        return merge_snapshots(*self.job_metrics.values())

    # ------------------------------------------------------------------
    def run(self, *, stop=None) -> dict[str, int]:
        """Drain the queue; returns this run's tallies.

        Blocks until no ticket is queued and no worker is in flight.
        Jobs requeued for retry during the run are picked back up before
        the pool returns (a retry backoff shows up as idle polling until
        its ``not_before`` elapses).

        ``stop`` is the graceful-drain hook: a zero-argument callable
        polled every scheduling round. Once it returns true the pool
        stops claiming new tickets, lets the in-flight attempts finish
        (their outcomes are recorded normally — nothing is killed), and
        returns even though tickets may remain queued. Unclaimed
        tickets keep their leaseless queued state, so the next pool (or
        a restarted scheduler) picks them up with no recovery needed.
        This is what a SIGTERM'd scheduler process runs through, so a
        rolling restart never turns into crash recovery.
        """
        self.stats = self._zero_stats()
        stop = stop or (lambda: False)
        # Reclaim tickets orphaned by a dead scheduler before draining.
        # This is the one safe recovery point: JobQueue.recover gates on
        # lease liveness, so a concurrently live pool keeps its work.
        recovered = self.queue.recover()
        if recovered:
            self._log(f"recovered {recovered} orphaned ticket(s)")
        active: list[_Slot] = []
        stopping = False
        while True:
            if not stopping and stop():
                stopping = True
                self.metrics.inc("batch.drain_requested")
                self._log(
                    f"drain requested: finishing {len(active)} in-flight "
                    "attempt(s), claiming nothing new"
                )
            while not stopping and len(active) < self.n_workers:
                try:
                    claimed = self.queue.claim()
                    if claimed is None:
                        break
                    slot = self._dispatch(*claimed)
                except OSError as err:
                    # injected (or real) storage fault mid-claim: abandon
                    # the slot; the lease expires and recovery requeues it
                    self.metrics.inc("batch.scheduler_io_errors")
                    self._log(f"claim/dispatch aborted by IO fault: {err}")
                    break
                if slot is not None:
                    active.append(slot)
            if not active:
                if stopping or self.queue.pending() == 0:
                    break
                time.sleep(self.poll_interval)
                continue  # cache hits or pending backoffs; refill
            # wake when a worker exits, not a tick later; the timeout
            # keeps deadlines and ``stop`` polled at the same interval
            wait(
                [slot.process.sentinel for slot in active],
                timeout=self.poll_interval,
            )
            still_active = []
            for slot in active:
                if slot.process.is_alive():
                    if (
                        slot.deadline is not None
                        and time.time() > slot.deadline
                    ):
                        slot.process.terminate()
                        slot.process.join()
                        self._finish_guarded(slot, timed_out=True)
                    else:
                        still_active.append(slot)
                else:
                    slot.process.join()
                    self._finish_guarded(slot)
            active = still_active
        self._persist_metrics()
        return dict(self.stats)

    def _persist_metrics(self) -> None:
        """Drop this scheduler's metrics snapshot into ``<root>/metrics``.

        One file per scheduler identity (``sched-<pid>``), overwritten
        with the accumulated registry each run, so ``python -m repro
        report <batch-dir>`` can merge every process's counters into one
        operator view. Metrics are observability, never load-bearing:
        any IO failure here is swallowed.
        """
        root = self.scratch_root.parent / "metrics"
        try:
            write_json_atomic(
                root / f"{self.queue.owner}.json", self.metrics.snapshot()
            )
        except OSError:
            pass

    def _finish_guarded(self, slot: _Slot, *, timed_out: bool = False) -> None:
        try:
            self._finish(slot, timed_out=timed_out)
        except OSError as err:
            # storage fault while recording the result: drop the slot;
            # the released-or-expiring lease puts the job back in play
            self.metrics.inc("batch.scheduler_io_errors")
            self._log(f"{slot.record.job_id}: finish aborted by IO fault: {err}")

    # ------------------------------------------------------------------
    def _scratch(self, record: JobRecord) -> Path:
        path = self.scratch_root / record.job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _dispatch(self, record: JobRecord, ticket: str) -> _Slot | None:
        """Start one attempt (or complete instantly from the cache)."""
        epoch = record.lease_epoch
        if self.queue.is_cancelled(record.job_id):
            # tombstone landed between submit and claim: drop the job
            self._settle(
                record, ticket, JobState.CANCELLED, {"status": "cancelled"},
                "cancelled before dispatch", epoch=epoch,
            )
            return None
        # Consult the cache on *every* dispatch, retries included: a
        # job recovered after a scheduler crash still short-circuits
        # when a sibling cached an identical spec in the meantime.
        spec_hash = record.spec.spec_hash()
        cached = self.store.lookup(spec_hash)
        if cached is None:
            self.metrics.inc("batch.cache_misses")
        if cached is not None:

            def _mark_cached(rec: JobRecord) -> None:
                rec.cached = True
                rec.attempt_log.append({"cached": True, "spec_hash": spec_hash})

            outcome = dict(
                cached, status="succeeded", cached=True,
                steps_executed=0, spec_hash=spec_hash,
            )
            if self._settle(
                record, ticket, JobState.SUCCEEDED, outcome,
                f"cache hit ({spec_hash[:12]})",
                epoch=epoch, mutate=_mark_cached,
            ):
                self._tally("cache_hits")
            return None
        attempt = record.attempts
        record.attempts += 1
        record.state = JobState.RUNNING
        record.started_at = record.started_at or time.time()
        scratch = self._scratch(record)
        outcome_path = scratch / f"outcome-e{epoch:04d}-attempt-{attempt:03d}.json"
        lease_info = {
            "root": str(self.queue.leases.root),
            "ttl": self.queue.leases.ttl,
            "job_id": record.job_id,
            "epoch": epoch,
            "owner": self.queue.owner,
            "journal": str(self.queue.journal.root),
        }
        process = self._ctx.Process(
            target=worker_entry,
            args=(record.spec.to_dict(), str(scratch), attempt,
                  str(outcome_path), self.trace, lease_info),
            daemon=True,
        )
        process.start()
        record.worker_pid = process.pid
        self.queue.save_record(record)
        self._tally("dispatched")
        timeout = (
            record.retry.attempt_deadline_s
            if record.retry.attempt_deadline_s is not None
            else self.job_timeout
        )
        deadline = None if timeout is None else time.time() + timeout
        self._log(
            f"{record.job_id}: attempt {attempt + 1} started "
            f"(pid {process.pid}, epoch {epoch})"
        )
        return _Slot(
            process, record, ticket, outcome_path, time.time(), epoch, deadline
        )

    def _settle(
        self, record: JobRecord, ticket: str, state: str, outcome: dict,
        note: str, *, epoch: int, mutate=None,
    ) -> JobRecord | None:
        """Make a terminal transition and act on its verdict — the one
        place a job's ``outcome-final.json`` is written and its ticket
        retired.

        The outcome is :meth:`JobQueue.finalize`'s ``publish`` step: it
        lands under the per-job lock, after the fencing check and before
        ``state`` is saved, so whoever reads the terminal state finds
        the result. A fenced transition (the record is already terminal,
        or our claim was superseded and the new owner decides the job's
        fate) publishes nothing — unless :meth:`JobQueue.cancel`, which
        has no scratch directory to publish into, finalised the record
        under our claim. Either way the ticket is acked. Returns the
        final record, or ``None`` when fenced.
        """
        path = self.scratch_root / record.job_id / "outcome-final.json"
        final = self.queue.finalize(
            record.job_id, state, epoch=epoch, mutate=mutate,
            publish=lambda _record: write_json_atomic(path, outcome),
        )
        if final is None and state == JobState.CANCELLED:
            current = self.queue.load_record(record.job_id)
            if (
                current is not None
                and current.state == JobState.CANCELLED
                and current.lease_epoch == epoch
            ):
                write_json_atomic(path, outcome)
                final = current
        self.queue.ack(ticket)
        if final is None:
            self._tally("fenced")
            return None
        self._tally(state)
        if outcome.get("metrics"):
            self.job_metrics[record.job_id] = outcome["metrics"]
        self._log(f"{record.job_id}: {note}")
        return final

    def _finish(self, slot: _Slot, *, timed_out: bool = False) -> None:
        """Classify a finished attempt and route it (ack/retry/fail).

        An outcome file that exists and parses is trusted over the exit
        code: an injected ``crash_after_rename`` makes the worker die
        *after* its outcome landed, and re-running a completed attempt
        would violate the effort (though not the correctness) story.
        """
        record, process = slot.record, slot.process
        outcome = read_json(slot.outcome_path)
        if outcome is not None:
            self.metrics.inc(
                "batch.worker_late_imports", outcome.get("late_imports", 0)
            )
        if timed_out:
            record.attempt_log.append(
                {"attempt": record.attempts - 1, "crash": True,
                 "error": "JobTimeout",
                 "message": "attempt deadline exceeded; terminated"}
            )
            self._retry_or_fail(slot, "JobTimeout: worker terminated")
        elif outcome is None:
            # no (valid) outcome: the worker died mid-run
            message = f"worker crashed (exit code {process.exitcode}, no outcome file)"
            record.attempt_log.append(
                {"attempt": record.attempts - 1, "crash": True,
                 "exitcode": process.exitcode, "error": "WorkerCrashed",
                 "message": message}
            )
            self._retry_or_fail(slot, f"WorkerCrashed: {message}")
        elif outcome.get("status") == "succeeded":
            spec_hash = record.spec.spec_hash()
            state_stem = outcome.pop("state_stem", None)
            record.attempt_log.append(outcome)

            def _log_attempt(rec: JobRecord) -> None:
                rec.attempts = record.attempts
                rec.attempt_log = record.attempt_log

            final = self._settle(
                record, slot.ticket, JobState.SUCCEEDED,
                dict(outcome, spec_hash=spec_hash, cached=False),
                f"succeeded ({outcome.get('steps_executed', '?')} steps, "
                f"attempt {record.attempts})",
                epoch=slot.epoch, mutate=_log_attempt,
            )
            if final is None:
                # our claim was superseded; the new owner completes it
                self._log(f"{record.job_id}: success discarded (fenced)")
            else:
                cache_entry = {
                    k: v for k, v in outcome.items()
                    if k not in (
                        "status", "attempt", "pid", "epoch", "late_imports"
                    )
                }
                self.store.put(spec_hash, cache_entry, state_stem=state_stem)
        else:
            record.attempt_log.append(outcome)
            self._retry_or_fail(
                slot,
                f"{outcome.get('error', 'JobFailed')}: "
                f"{outcome.get('message', 'unknown failure')}",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _poisoned(record: JobRecord) -> bool:
        """True when every attempt failed with the *same* error class —
        the reproducible-fault signature that warrants quarantine."""
        errors = [
            a.get("error") for a in record.attempt_log if a.get("error")
        ]
        return len(errors) >= 2 and len(set(errors)) == 1

    def _retry_or_fail(self, slot: _Slot, error: str) -> None:
        record = slot.record
        job_id = record.job_id
        policy = record.retry

        def _mark_failed(rec: JobRecord) -> None:
            rec.error = error
            rec.attempts = record.attempts
            rec.attempt_log = record.attempt_log

        if self.queue.is_cancelled(job_id):
            # cancelled while (or just before) the attempt ran: never retry
            self._settle(
                record, slot.ticket, JobState.CANCELLED,
                {"status": "cancelled", "error": error,
                 "attempts": record.attempts},
                f"cancelled; not retrying ({error})",
                epoch=slot.epoch, mutate=_mark_failed,
            )
        elif record.attempts < policy.max_attempts:
            delay = policy.delay(job_id, record.attempts)
            with self.queue.live_record(job_id, slot.epoch) as current:
                if current is None:
                    # superseded: the new owner handles this job's fate
                    self._tally("fenced")
                    self.queue.ack(slot.ticket)
                    return
                current.state = JobState.QUEUED
                current.worker_pid = None
                current.attempts = record.attempts
                current.attempt_log = record.attempt_log
                current.not_before = time.time() + delay if delay else 0.0
                self.queue.save_record(current)
            try:
                self.queue.requeue(slot.ticket)
            except FileNotFoundError:
                pass  # a recover pass moved the ticket for us already
            self._tally("retried")
            self._log(
                f"{job_id}: attempt {record.attempts} failed "
                f"({error}); retrying"
                + (f" in {delay:.2f}s" if delay else "")
            )
        else:
            state = (
                JobState.QUARANTINED if self._poisoned(record)
                else JobState.FAILED
            )
            final = self._settle(
                record, slot.ticket, state,
                {"status": state, "error": error,
                 "attempts": record.attempts,
                 "attempt_log": record.attempt_log},
                f"{state} after {record.attempts} attempt(s): {error}",
                epoch=slot.epoch, mutate=_mark_failed,
            )
            if final is not None and state == JobState.QUARANTINED:
                self.queue.journal.append(
                    "quarantined", job_id,
                    error=error, attempts=record.attempts,
                )
