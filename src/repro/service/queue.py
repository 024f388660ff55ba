"""Persistent on-disk job queue with atomic claim/ack and lease fencing.

The queue is a directory of *ticket* files:

.. code-block:: text

    <root>/
        jobs/<job_id>.json        canonical JobRecord (atomic rewrite)
        jobs/.<job_id>.lock       per-job record lock (claim/finalise)
        tickets/queued/<ticket>   one empty-ish file per runnable job
        tickets/claimed/<ticket>  tickets a scheduler is working on
        leases/<job_id>.json      heartbeat-renewed liveness claims
        journal/events.jsonl      append-only audit trail
        seq                       monotonically increasing submit counter

A ticket's *name* encodes its scheduling key — zero-padded inverted
priority, then the submit sequence number — so a plain lexicographic
sort of ``tickets/queued`` yields the dispatch order (higher priority
first, FIFO within a priority). *Claiming* a ticket is a single
``os.rename`` from ``queued/`` to ``claimed/``: rename within one
directory tree is atomic on POSIX, so when several pools race for the
same ticket exactly one rename succeeds and the losers see
``FileNotFoundError`` and move on. *Acking* deletes the claimed ticket.

**Liveness is lease-based.** Claiming bumps the job's fencing epoch
(under the per-job record lock) and writes a lease file the claimant's
worker renews by heartbeat (:mod:`repro.service.lease`). Crash recovery
falls out of the layout: a killed scheduler leaves its tickets in
``claimed/`` and its leases stop renewing; :meth:`JobQueue.recover`
returns every claimed ticket whose lease is missing or expired to
``queued/``. No pid probing — pids are recycled, lease files are not.
Opening a queue never recovers: any number of observers (clients, the
HTTP server, the auditor) may open it while a live scheduler drains it,
so recovery runs in one place, at the start of :meth:`WorkerPool.run
<repro.service.pool.WorkerPool.run>`.
Freshly claimed tickets get a short mtime grace window so a concurrent
recover cannot steal a ticket in the instant between the claim rename
and its lease write.

**Terminal transitions are exactly-once.** Every path that moves a job
into a terminal state funnels through :meth:`JobQueue.finalize`, which
re-reads the record under the per-job lock, rejects the transition when
the record is already terminal or the caller's fencing epoch has been
superseded (a *fenced* zombie write), and appends the single
``completed`` event to the journal (``claim`` and ``cancel``, which
already hold the lock over a record they just checked, run the same
transition body). That check is :meth:`JobQueue.live_record`, which the
pool's retry path uses too. ``python -m repro batch audit``
replays the journal against the records to prove the invariants held.

Cancellation is a tombstone file (``cancelled/<job_id>``) rather than a
record rewrite, so it cannot race a scheduler's claim: claim, dispatch,
recovery, and the retry path all consult the tombstone and drop the job
instead of running (or re-running) it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.io.batch_io import (
    locked_fd,
    read_json,
    write_json_atomic,
    write_text_atomic,
)
from repro.service.journal import Journal
from repro.service.lease import DEFAULT_TTL, LeaseStore
from repro.service.spec import JobRecord, JobState, RetryPolicy

#: Priorities live in [0, MAX_PRIORITY]; higher runs sooner.
MAX_PRIORITY = 999

#: Tickets claimed within the last ``CLAIM_GRACE`` seconds are never
#: treated as orphans: the claimer may be between its rename and its
#: lease write. Kept well under any sane ttl.
CLAIM_GRACE = 1.0

#: A record save that raises is retried this many times before the
#: error surfaces — a record that never lands orphans its job.
SAVE_RETRIES = 3


class JobQueue:
    """Directory-backed priority queue of :class:`JobRecord` s."""

    def __init__(
        self,
        root: str | Path,
        *,
        lease_ttl: float = DEFAULT_TTL,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.queued_dir = self.root / "tickets" / "queued"
        self.claimed_dir = self.root / "tickets" / "claimed"
        self.cancelled_dir = self.root / "cancelled"
        for d in (
            self.jobs_dir, self.queued_dir, self.claimed_dir, self.cancelled_dir
        ):
            d.mkdir(parents=True, exist_ok=True)
        self._seq_path = self.root / "seq"
        self.leases = LeaseStore(self.root / "leases", ttl=lease_ttl)
        self.journal = Journal(self.root / "journal")
        #: Scheduler identity stamped into leases this queue acquires.
        self.owner = f"sched-{os.getpid()}"
        #: Optional MetricsRegistry (bound by the pool): recover and
        #: finalize bump ``batch.lease_expired`` / ``batch.fenced_writes``.
        self.metrics = None

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        """Allocate the next submit sequence number (lock-serialised)."""
        with locked_fd(self._seq_path) as fd:
            raw = os.read(fd, 32)
            seq = int(raw) + 1 if raw.strip() else 1
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, str(seq).encode())
            return seq

    @staticmethod
    def _ticket_name(priority: int, seq: int, job_id: str) -> str:
        return f"{MAX_PRIORITY - priority:03d}-{seq:010d}-{job_id}"

    def submit(
        self,
        spec,
        *,
        priority: int = 0,
        retry: RetryPolicy | None = None,
        tenant: str = "",
    ) -> JobRecord:
        """Enqueue a :class:`JobSpec`; returns the new record.

        ``retry`` is the job's :class:`RetryPolicy` (``None`` = the
        default policy: one retry, no backoff). ``tenant`` is a
        free-form quota label recorded on the record (the HTTP layer's
        rate-limit bucket key); it never affects the spec hash.
        """
        if not (0 <= priority <= MAX_PRIORITY):
            raise ValueError(f"priority must be in [0, {MAX_PRIORITY}], got {priority}")
        seq = self._next_seq()
        job_id = f"j{seq:06d}-{spec.spec_hash()[:8]}"
        record = JobRecord(
            job_id=job_id, spec=spec, priority=priority,
            retry=retry or RetryPolicy(), tenant=tenant,
        )
        self.save_record(record)
        ticket = self.queued_dir / self._ticket_name(priority, seq, job_id)
        write_text_atomic(ticket, job_id)
        self.journal.append("submitted", job_id, priority=priority)
        return record

    # ------------------------------------------------------------------
    # per-job record lock
    # ------------------------------------------------------------------
    @contextmanager
    def locked_record(self, job_id: str):
        """Serialise record mutations (claim epoch bump, finalise)."""
        with locked_fd(self.jobs_dir / f".{job_id}.lock") as fd:
            yield fd

    # ------------------------------------------------------------------
    # claim / ack / requeue
    # ------------------------------------------------------------------
    def _queued(self) -> list[str]:
        """Runnable ticket names, in dispatch order.

        Dot-files are not tickets: ``write_text_atomic`` stages a new
        ticket as a ``.<name>.<random>.tmp`` sibling inside this very
        directory, and a claimer that renamed the staging file away
        would fail the submitter's ``os.replace`` and orphan the job.
        """
        return sorted(
            n for n in os.listdir(self.queued_dir) if not n.startswith(".")
        )

    def claim(self) -> tuple[JobRecord, str] | None:
        """Atomically take the highest-priority claimable ticket.

        Returns ``(record, ticket_name)`` or ``None`` when nothing is
        claimable. Losing a rename race just advances to the next
        ticket; when every listed ticket vanished to racing claimers the
        directory is re-listed, so tickets enqueued during the scan are
        still found and ``None`` means a genuinely empty (or fully
        backed-off) fresh listing.

        A successful claim bumps the record's fencing epoch under the
        per-job lock, persists it, writes the lease, and journals the
        ``claimed`` event — so by the time the caller sees the record,
        any previous owner's epoch is provably superseded. Tickets whose
        record carries a future ``not_before`` (retry backoff pending)
        are put back and skipped for this call.
        """
        deferred: set[str] = set()

        def defer(name: str) -> None:
            # lint: lock-ok[rename-as-claim] -- returning the claim
            os.rename(self.claimed_dir / name, self.queued_dir / name)
            deferred.add(name)

        while True:
            candidates = [t for t in self._queued() if t not in deferred]
            if not candidates:
                return None
            for name in candidates:
                try:
                    # lint: lock-ok[rename-as-claim] -- exactly one claimer
                    # wins the rename; the rename IS the atomic claim
                    os.rename(self.queued_dir / name, self.claimed_dir / name)
                except FileNotFoundError:
                    continue  # another claimer won this ticket
                # refresh the mtime: recover()'s grace window keys off it
                os.utime(self.claimed_dir / name)
                job_id = name.split("-", 2)[2]
                with self.locked_record(job_id):
                    record = self.load_record(job_id)
                    if record is None or record.state in JobState.TERMINAL:
                        # cancelled-and-gone while queued: consume
                        (self.claimed_dir / name).unlink(missing_ok=True)
                        self.leases.release(job_id)
                        continue
                    if self.is_cancelled(job_id):
                        # tombstone beat the record update: finalise it
                        self._complete(record, JobState.CANCELLED)
                        (self.claimed_dir / name).unlink(missing_ok=True)
                        continue
                    if record.not_before > time.time():
                        # retry backoff still pending: put it back
                        defer(name)
                        continue
                    record.lease_epoch += 1
                    self.save_record(record)
                    self.leases.acquire(job_id, record.lease_epoch, self.owner)
                self.journal.append(
                    "claimed", job_id,
                    epoch=record.lease_epoch, owner=self.owner,
                )
                return record, name
            # every listed ticket vanished or was consumed under us; re-list

    def ack(self, ticket_name: str) -> None:
        """Retire a claimed ticket (job reached a terminal state)."""
        (self.claimed_dir / ticket_name).unlink(missing_ok=True)

    def requeue(self, ticket_name: str, *, reason: str = "retry") -> None:
        """Put a claimed ticket back at the tail of its priority band."""
        prio_part = ticket_name.split("-", 2)[0]
        job_id = ticket_name.split("-", 2)[2]
        seq = self._next_seq()
        new_name = f"{prio_part}-{seq:010d}-{job_id}"
        # lint: lock-ok[rename-as-claim] -- releasing the claim atomically
        os.rename(self.claimed_dir / ticket_name, self.queued_dir / new_name)
        self.leases.release(job_id)
        self.journal.append("requeued", job_id, reason=reason)

    def recover(self) -> int:
        """Return orphaned claimed tickets to the queue; count moved.

        A ticket in ``claimed/`` is an orphan exactly when its lease is
        missing or expired — provable from the filesystem alone, no pid
        arithmetic. A claimed ticket with a live (renewing) lease
        belongs to a live scheduler and is left untouched, so a
        concurrent ``batch status``/``submit`` (or a second
        ``batch run``) can never steal in-flight work and spawn a
        duplicate execution. Tickets claimed within the last
        :data:`CLAIM_GRACE` seconds are skipped outright: their claimer
        may be between the rename and the lease write. Orphans are
        flipped back to ``queued`` (keeping their attempt history and
        fencing epoch); tombstoned or terminal orphans are dropped.
        """
        moved = 0
        now = time.time()
        for ticket in sorted(self.claimed_dir.iterdir()):
            job_id = ticket.name.split("-", 2)[2]
            record = self.load_record(job_id)
            if record is None or record.state in JobState.TERMINAL:
                ticket.unlink(missing_ok=True)
                self.leases.release(job_id)
                continue
            if self.is_cancelled(job_id):
                self.finalize(job_id, JobState.CANCELLED)
                ticket.unlink(missing_ok=True)
                continue
            try:
                age = now - ticket.stat().st_mtime
            except FileNotFoundError:
                continue  # acked or requeued under us
            if age < min(CLAIM_GRACE, self.leases.ttl):
                continue  # freshly claimed: lease write may be in flight
            lease = self.leases.peek(job_id)
            if lease is not None and not lease.expired(now):
                continue  # live claimant: not an orphan
            if lease is not None:
                self.journal.append(
                    "lease_expired", job_id,
                    epoch=lease.epoch, owner=lease.owner,
                )
                if self.metrics is not None:
                    self.metrics.inc("batch.lease_expired")
            with self.locked_record(job_id):
                record = self.load_record(job_id)
                if record is None or record.state in JobState.TERMINAL:
                    ticket.unlink(missing_ok=True)
                    self.leases.release(job_id)
                    continue
                if record.state == JobState.RUNNING:
                    record.state = JobState.QUEUED
                    record.worker_pid = None
                    self.save_record(record)
            try:
                self.requeue(ticket.name, reason="lease_expired")
            except FileNotFoundError:
                continue  # a racing recover beat us to it
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # terminal transitions (exactly-once)
    # ------------------------------------------------------------------
    def finalize(
        self,
        job_id: str,
        state: str,
        *,
        epoch: int | None = None,
        mutate=None,
        publish=None,
    ) -> JobRecord | None:
        """Move a job into a terminal state, exactly once.

        Re-reads the record under the per-job lock and rejects the
        transition when the record is already terminal (someone else
        finalised first) or — when ``epoch`` is given — the record's
        fencing epoch has moved past it (the caller is a zombie whose
        claim was superseded; its write is *fenced* and journalled as
        such). ``mutate(record)`` may apply extra fields (error text,
        cache flags) before the save, and ``publish(record)`` lands the
        job's result ahead of it (:meth:`_complete`). Returns the updated
        record, or ``None`` when the transition was rejected.
        """
        if state not in JobState.TERMINAL:
            raise ValueError(f"finalize() requires a terminal state, got {state!r}")
        with self.live_record(job_id, epoch) as record:
            if record is None:
                return None
            return self._complete(record, state, mutate, publish)

    @contextmanager
    def live_record(self, job_id: str, epoch: int | None):
        """Yield the job's record under its lock, or ``None`` when the
        job is gone, terminal, or — when ``epoch`` is given — claimed
        at a later fencing epoch.

        The one fencing check: only a superseded epoch is a *fenced*
        write (a zombie's), journalled and counted in
        ``batch.fenced_writes``; a gone or terminal job is no one's.
        """
        with self.locked_record(job_id):
            record = self.load_record(job_id)
            if record is None or record.state in JobState.TERMINAL:
                yield None
                return
            if epoch is not None and record.lease_epoch != epoch:
                self.journal.append(
                    "fenced", job_id,
                    epoch=epoch, current_epoch=record.lease_epoch,
                )
                if self.metrics is not None:
                    self.metrics.inc("batch.fenced_writes")
                yield None
                return
            yield record

    def _complete(
        self, record: JobRecord, state: str, mutate=None, publish=None
    ) -> JobRecord:
        """The terminal transition itself: result, state, verified save,
        lease release, and the single ``completed`` journal event. The
        caller holds the per-job lock and has checked the record is
        live. ``publish`` runs *before* the save, so no reader ever sees
        a terminal state whose result has not landed; if it raises, the
        record stays live and the job is recovered like any crash."""
        record.state = state
        record.finished_at = time.time()
        record.worker_pid = None
        if mutate is not None:
            mutate(record)
        if publish is not None:
            publish(record)
        self.save_record(record)
        self.leases.release(record.job_id)
        self.journal.append(
            "completed", record.job_id, status=state, epoch=record.lease_epoch
        )
        return record

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def is_cancelled(self, job_id: str) -> bool:
        """True when ``job_id`` carries a cancellation tombstone."""
        return (self.cancelled_dir / job_id).exists()

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (running/terminal jobs are left alone).

        The tombstone file is the authoritative signal — claim,
        dispatch, recovery, and the retry path all consult it — so a
        scheduler that claims the ticket concurrently with this call
        still drops the job instead of running it. (A worker that had
        already *started* before the tombstone landed finishes its
        current attempt, but is never retried.)
        """
        record = self.load_record(job_id)
        if record is None or record.state != JobState.QUEUED:
            return False
        (self.cancelled_dir / job_id).touch()
        # Finalise only if the job is still queued *after* the tombstone
        # landed; a pool that claimed it in between owns the record and
        # honours the tombstone through its own paths. A claimed record
        # still reads ``queued`` until its dispatch saves ``running``, so
        # the ticket's lane decides: the claim's rename moves it out of
        # ``queued/`` before the claimer takes this lock.
        suffix = f"-{job_id}"
        with self.locked_record(job_id):
            record = self.load_record(job_id)
            if (
                record is not None and record.state == JobState.QUEUED
                and any(n.endswith(suffix) for n in os.listdir(self.queued_dir))
            ):
                self._complete(record, JobState.CANCELLED)
        return True

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def save_record(self, record: JobRecord) -> None:
        """Persist ``record``, retrying a write that raises.

        The record file is the one artifact whose loss orphans a job.
        The atomic write leaves either the old record or the new one,
        so a write that raised (storage fault) is simply retried
        :data:`SAVE_RETRIES` times before the error is allowed to
        surface.
        """
        path = self.jobs_dir / f"{record.job_id}.json"
        payload = record.to_dict()
        for attempt in range(SAVE_RETRIES):
            try:
                write_json_atomic(path, payload)
                return
            except OSError:
                if attempt == SAVE_RETRIES - 1:
                    raise

    def load_record(self, job_id: str) -> JobRecord | None:
        d = read_json(self.jobs_dir / f"{job_id}.json")
        return None if d is None else JobRecord.from_dict(d)

    def records(self) -> list[JobRecord]:
        """Every job record, in submit order — one pass over ``jobs/``.

        Every observer view (:meth:`counts`, :meth:`depths`,
        ``BatchClient.status``) can derive from one such walk, so each
        record file is parsed once per view. A record file that does
        not parse reads as absent (:func:`read_json`).
        """
        loaded = (
            self.load_record(path.stem)
            for path in sorted(self.jobs_dir.glob("*.json"))
        )
        return [record for record in loaded if record is not None]

    def counts(self, records=None) -> dict[str, int]:
        """Job count per lifecycle state (of ``records``, default a
        fresh :meth:`records` walk)."""
        out = {state: 0 for state in JobState.ALL}
        for record in self.records() if records is None else records:
            out[record.state] = out.get(record.state, 0) + 1
        return out

    def pending(self) -> int:
        """Tickets currently claimable."""
        return len(self._queued())

    def depths(self, records=None) -> dict:
        """Queue-depth view: ticket counts by lane and priority band.

        ``queued``/``claimed`` count tickets in each lane;
        ``by_priority`` buckets the queued tickets by their priority
        (decoded from the ticket name); ``deferred`` counts queued
        tickets whose record (in ``records``, default a fresh walk)
        carries a future ``not_before`` (retry backoff pending);
        ``oldest_queued_age_s`` is the age of the longest-waiting ticket
        (backlog latency signal).
        """
        if records is None:
            records = self.records()
        not_before = {r.job_id: r.not_before for r in records}
        by_priority: dict[str, int] = {}
        deferred = 0
        oldest: float | None = None
        now = time.time()
        for name in self._queued():
            ticket = self.queued_dir / name
            prio_part, _, rest = name.partition("-")
            try:
                priority = MAX_PRIORITY - int(prio_part)
            except ValueError:
                priority = -1
            key = str(priority)
            by_priority[key] = by_priority.get(key, 0) + 1
            try:
                age = now - ticket.stat().st_mtime
            except OSError:
                continue  # claimed under us
            if oldest is None or age > oldest:
                oldest = age
            job_id = rest.split("-", 1)[1] if "-" in rest else rest
            if not_before.get(job_id, 0.0) > now:
                deferred += 1
        return {
            "queued": sum(by_priority.values()),
            "claimed": sum(1 for _ in self.claimed_dir.iterdir()),
            "by_priority": dict(sorted(by_priority.items())),
            "deferred": deferred,
            "oldest_queued_age_s": oldest,
        }
