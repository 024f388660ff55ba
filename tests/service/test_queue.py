"""JobQueue: ordering, atomic claim/ack, lease-based orphan recovery."""

import os
import threading
import time
from pathlib import Path

import pytest
from lease_helpers import alive, expire

from repro.io.batch_io import write_json_atomic
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec, JobState


def spec(tag: str) -> JobSpec:
    return JobSpec(model="wall", engine="serial", steps=2, tag=tag)


@pytest.fixture
def queue(tmp_path) -> JobQueue:
    return JobQueue(tmp_path / "q")


class TestOrdering:
    def test_fifo_within_a_priority(self, queue):
        ids = [queue.submit(spec(f"t{i}")).job_id for i in range(4)]
        claimed = [queue.claim()[0].job_id for _ in range(4)]
        assert claimed == ids

    def test_priority_beats_fifo(self, queue):
        low = queue.submit(spec("low"), priority=0)
        high = queue.submit(spec("high"), priority=10)
        mid = queue.submit(spec("mid"), priority=5)
        order = [queue.claim()[0].job_id for _ in range(3)]
        assert order == [high.job_id, mid.job_id, low.job_id]

    def test_requeue_goes_to_band_tail(self, queue):
        first = queue.submit(spec("first"))
        second = queue.submit(spec("second"))
        record, ticket = queue.claim()
        assert record.job_id == first.job_id
        queue.requeue(ticket)
        assert queue.claim()[0].job_id == second.job_id
        assert queue.claim()[0].job_id == first.job_id


class TestClaimAtomicity:
    def test_claim_moves_ack_removes(self, queue):
        queue.submit(spec("a"))
        assert queue.pending() == 1
        record, ticket = queue.claim()
        assert queue.pending() == 0
        assert (queue.claimed_dir / ticket).exists()
        queue.ack(ticket)
        assert not (queue.claimed_dir / ticket).exists()
        assert queue.claim() is None

    def test_concurrent_claimers_never_share_a_ticket(self, tmp_path):
        """N racing claimers: every ticket claimed exactly once."""
        root = tmp_path / "q"
        seed = JobQueue(root)
        n_jobs = 24
        for i in range(n_jobs):
            seed.submit(spec(f"t{i}"))
        claimed: list[str] = []
        lock = threading.Lock()

        def drain():
            q = JobQueue(root)
            while True:
                got = q.claim()
                if got is None:
                    return
                with lock:
                    claimed.append(got[0].job_id)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == n_jobs
        assert len(set(claimed)) == n_jobs  # no double claims

    def test_cancelled_job_is_skipped(self, queue):
        record = queue.submit(spec("doomed"))
        record.state = JobState.CANCELLED
        queue.save_record(record)
        runnable = queue.submit(spec("fine"))
        got = queue.claim()
        assert got is not None and got[0].job_id == runnable.job_id
        assert queue.claim() is None  # the cancelled ticket was consumed


    def test_a_ticket_being_staged_is_not_claimable(self, queue):
        """``write_text_atomic`` stages a ticket as a dot-prefixed tmp file
        inside ``queued/``; a claimer that took it would fail the
        submitter's rename (HTTP 500 ``FileNotFoundError``) and orphan
        the job."""
        staging = queue.queued_dir / ".999-0000000001-j000001-abcd1234.x1.tmp"
        staging.write_text("j000001-abcd1234")
        assert queue.claim() is None
        assert queue.pending() == 0
        assert queue.depths()["queued"] == 0
        assert staging.exists()


def _orphan_claim(root, tag: str):
    """Submit and claim one job, then let its claimant die: the lease
    stops renewing and the claimed ticket ages past the grace window."""
    q = JobQueue(root)
    record = q.submit(spec(tag))
    claimed, ticket = q.claim()
    claimed.state = JobState.RUNNING
    q.save_record(claimed)
    expire(q.leases, record.job_id)
    old = time.time() - 5.0
    os.utime(q.claimed_dir / ticket, (old, old))
    return claimed, ticket


class TestRecovery:
    def test_opening_a_queue_never_recovers(self, tmp_path):
        """An expired claim stays claimed through any number of opens —
        observers (clients, the server, the auditor) open the queue while
        a scheduler drains it — until ``recover()`` or ``pool.run()``."""
        from repro.service.pool import WorkerPool
        from repro.service.store import ResultStore

        root = tmp_path / "q"
        claimed, ticket = _orphan_claim(root, "orphan")
        for _ in range(2):
            q = JobQueue(root)
            assert q.pending() == 0
            assert (q.claimed_dir / ticket).exists()
            assert q.load_record(claimed.job_id).state == JobState.RUNNING
        assert q.recover() == 1
        assert q.pending() == 1

        # the pool's drain is the product's recovery point
        _orphan_claim(tmp_path / "p", "orphan")
        q = JobQueue(tmp_path / "p")
        pool = WorkerPool(q, ResultStore(tmp_path / "store"), tmp_path / "s")
        stats = pool.run(stop=lambda: True)  # recover, then claim nothing
        assert stats["dispatched"] == 0
        assert q.pending() == 1
        assert not any(q.claimed_dir.iterdir())

    def test_killed_scheduler_tickets_requeued_on_open(self, tmp_path):
        """Claimed-but-never-acked work survives a scheduler death: the
        next scheduler's ``recover()`` requeues it."""
        root = tmp_path / "q"
        claimed, _ticket = _orphan_claim(root, "orphan")
        q2 = JobQueue(root)
        assert q2.recover() == 1
        assert q2.pending() == 1
        got = q2.claim()
        assert got is not None
        assert got[0].job_id == claimed.job_id
        assert got[0].state == JobState.QUEUED
        assert got[0].worker_pid is None
        # the re-claim superseded the dead scheduler's fencing epoch
        assert got[0].lease_epoch == claimed.lease_epoch + 1

    def test_recover_drops_terminal_orphans(self, tmp_path):
        root = tmp_path / "q"
        q1 = JobQueue(root)
        q1.submit(spec("done"))
        record, ticket = q1.claim()
        record.state = JobState.SUCCEEDED
        q1.save_record(record)
        # scheduler died after saving the record but before ack
        q2 = JobQueue(root)
        q2.recover()
        assert q2.pending() == 0
        assert q2.claim() is None

    def test_recover_leaves_live_claimants_alone(self, tmp_path):
        """A running record with a live (unexpired) lease is not an orphan."""
        root = tmp_path / "q"
        q1 = JobQueue(root)
        record = q1.submit(spec("live"))
        claimed, ticket = q1.claim()
        claimed.state = JobState.RUNNING
        q1.save_record(claimed)
        # age the ticket past the grace window: only the lease protects it
        old = time.time() - 5.0
        os.utime(q1.claimed_dir / ticket, (old, old))
        assert alive(q1.leases, record.job_id)
        q2 = JobQueue(root)
        assert q2.recover() == 0
        assert q2.pending() == 0  # the ticket was not stolen
        reloaded = q2.load_record(record.job_id)
        assert reloaded.state == JobState.RUNNING
        assert reloaded.lease_epoch == claimed.lease_epoch

    def test_counts_by_state(self, queue):
        queue.submit(spec("a"))
        record = queue.submit(spec("b"))
        record.state = JobState.FAILED
        queue.save_record(record)
        counts = queue.counts()
        assert counts["queued"] == 1
        assert counts["failed"] == 1


class TestBackoffDeferral:
    def test_backoff_ticket_is_deferred_not_spun(self, queue):
        """claim() must return None promptly (bounded re-list) when the
        only queued ticket is still inside its retry backoff."""
        record = queue.submit(spec("later"))
        rec = queue.load_record(record.job_id)
        rec.not_before = time.time() + 30.0
        queue.save_record(rec)
        start = time.monotonic()
        assert queue.claim() is None
        assert time.monotonic() - start < 2.0  # no spin until not_before
        assert queue.pending() == 1  # the ticket was put back, not eaten
        rec = queue.load_record(record.job_id)
        assert rec.lease_epoch == 0  # a deferral is not a claim
        rec.not_before = 0.0
        queue.save_record(rec)
        got = queue.claim()
        assert got is not None and got[0].job_id == record.job_id

    def test_backoff_does_not_block_other_jobs(self, queue):
        deferred = queue.submit(spec("deferred"))
        rec = queue.load_record(deferred.job_id)
        rec.not_before = time.time() + 30.0
        queue.save_record(rec)
        ready = queue.submit(spec("ready"))
        got = queue.claim()
        assert got is not None and got[0].job_id == ready.job_id


class TestStatusScan:
    """``BatchClient.status()`` serves rows and counts from one walk of
    ``jobs/``."""

    def test_each_record_is_parsed_once_per_status(self, tmp_path, monkeypatch):
        from repro.service import queue as queue_mod
        from repro.service.client import BatchClient

        client = BatchClient(tmp_path / "b")
        q = client.queue
        done, waiting, torn = (q.submit(spec(t)) for t in ("a", "b", "c"))
        q.claim()
        q.finalize(done.job_id, JobState.SUCCEEDED)
        torn_path = q.jobs_dir / f"{torn.job_id}.json"
        torn_path.write_bytes(torn_path.read_bytes()[:40])

        reads: dict[str, int] = {}
        real_read = queue_mod.read_json

        def counting_read(path):
            reads[Path(path).stem] = reads.get(Path(path).stem, 0) + 1
            return real_read(path)

        monkeypatch.setattr(queue_mod, "read_json", counting_read)
        status = client.status()

        # one parse per record file, not per view; a record that does
        # not parse reads as absent
        assert reads == {done.job_id: 1, waiting.job_id: 1, torn.job_id: 1}

        assert status["counts"] == {
            "queued": 1, "running": 0, "succeeded": 1, "failed": 0,
            "cancelled": 0, "quarantined": 0,
        }
        depths = status["queue"]
        assert (depths["queued"], depths["claimed"], depths["deferred"]) == (
            2, 1, 0
        )
        h = spec("a").spec_hash()[:12]
        assert status["jobs"][0] == {
            "job_id": done.job_id, "state": "succeeded", "model": "wall",
            "engine": "serial", "steps": 2, "priority": 0, "tenant": "",
            "attempts": 0, "cached": False, "error": None, "spec_hash": h,
            "lease_epoch": 1, "not_before": 0.0, "lease": None,
        }
        assert [(r["job_id"], r["state"]) for r in status["jobs"][1:]] == [
            (waiting.job_id, "queued"),
        ]

    def test_each_record_is_parsed_once_per_results(self, tmp_path, monkeypatch):
        """``BatchClient.results()`` serves each outcome from the record
        its one walk loaded."""
        from repro.service import queue as queue_mod
        from repro.service.client import BatchClient

        client = BatchClient(tmp_path / "b")
        q = client.queue
        done, bare, waiting = (q.submit(spec(t)) for t in ("a", "b", "c"))
        for record in (done, bare):
            q.claim()
            q.finalize(record.job_id, JobState.SUCCEEDED)
        outcome = {"job_id": done.job_id, "ok": True}
        write_json_atomic(
            client.scratch_root / done.job_id / "outcome-final.json", outcome
        )

        reads: dict[str, int] = {}
        real_read = queue_mod.read_json

        def counting_read(path):
            reads[Path(path).stem] = reads.get(Path(path).stem, 0) + 1
            return real_read(path)

        monkeypatch.setattr(queue_mod, "read_json", counting_read)
        results = client.results()

        assert reads == {done.job_id: 1, bare.job_id: 1, waiting.job_id: 1}
        # a terminal job without a published outcome reads as None
        assert results == {
            done.job_id: outcome, bare.job_id: None, waiting.job_id: None,
        }

    def test_each_record_is_parsed_once_per_report(self, tmp_path, monkeypatch):
        """``repro report <batch-dir>`` reads ``jobs/`` once for both its
        job counts and its queue depths."""
        from repro.obs.report import build_service_report
        from repro.service import queue as queue_mod

        q = JobQueue(tmp_path / "b" / "queue")
        done, waiting = (q.submit(spec(t)) for t in ("a", "b"))
        q.claim()
        q.finalize(done.job_id, JobState.SUCCEEDED)

        reads: dict[str, int] = {}
        real_read = queue_mod.read_json

        def counting_read(path):
            reads[Path(path).stem] = reads.get(Path(path).stem, 0) + 1
            return real_read(path)

        monkeypatch.setattr(queue_mod, "read_json", counting_read)
        report = build_service_report(tmp_path / "b")

        assert reads == {done.job_id: 1, waiting.job_id: 1}
        assert (report["counts"]["succeeded"], report["counts"]["queued"]) == (
            1, 1
        )
        assert report["queue"]["queued"] == 1


class TestCancellation:
    def test_cancel_marks_queued_job(self, queue):
        record = queue.submit(spec("victim"))
        assert queue.cancel(record.job_id) is True
        assert queue.is_cancelled(record.job_id)
        assert queue.load_record(record.job_id).state == JobState.CANCELLED
        assert queue.claim() is None  # the ticket is consumed, not run

    def test_cancel_rejects_unknown_and_terminal(self, queue):
        assert queue.cancel("nope") is False
        record = queue.submit(spec("done"))
        record.state = JobState.SUCCEEDED
        queue.save_record(record)
        assert queue.cancel(record.job_id) is False
        assert not queue.is_cancelled(record.job_id)

    def test_tombstone_beats_requeued_ticket(self, queue):
        """A job cancelled after its claim is dropped on the retry path."""
        record = queue.submit(spec("raced"))
        _claimed, ticket = queue.claim()  # a pool claimed it first
        assert queue.cancel(record.job_id) is True  # then the user cancelled
        queue.requeue(ticket)  # the pool pushes it back (retry path)
        assert queue.claim() is None  # tombstoned: consumed, never returned
        assert queue.load_record(record.job_id).state == JobState.CANCELLED


def _fairness_scheduler(root: str, done_dir: str, wid: int) -> None:
    """One competing scheduler process: claim, finalize, ack — to empty."""
    queue = JobQueue(root)
    queue.owner = f"sched-fair-{wid}"
    claimed = 0
    while True:
        got = queue.claim()
        if got is None:
            break
        record, ticket = got
        time.sleep(0.002)  # hold the claim long enough for real overlap
        queue.finalize(
            record.job_id, JobState.SUCCEEDED, epoch=record.lease_epoch
        )
        queue.ack(ticket)
        claimed += 1
    (Path(done_dir) / str(wid)).write_text(str(claimed))


class TestMultiSchedulerFairness:
    """Several scheduler *processes* on one queue: exactly-once claims,
    every job terminal, and no scheduler starved out entirely."""

    def test_three_schedulers_share_one_queue(self, tmp_path):
        import multiprocessing

        from repro.service.audit import audit_journal

        root = tmp_path / "batch"
        queue = JobQueue(root / "queue")
        n_jobs, n_scheds = 30, 3
        for i in range(n_jobs):
            queue.submit(spec(f"fair-{i}"))
        done_dir = tmp_path / "done"
        done_dir.mkdir()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        procs = [
            ctx.Process(
                target=_fairness_scheduler,
                args=(str(root / "queue"), str(done_dir), wid),
            )
            for wid in range(n_scheds)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        assert queue.pending() == 0
        counts = queue.counts()
        assert counts[JobState.SUCCEEDED] == n_jobs

        # exactly-once: the auditor sees one claim epoch and one
        # completion per job, across all three claimants
        report = audit_journal(root, final=True)
        assert report["ok"], report["violations"]
        assert report["event_counts"]["claimed"] == n_jobs
        assert report["event_counts"]["completed"] == n_jobs

        # bounded starvation: every scheduler won at least one claim,
        # none monopolised the queue
        per_sched = {
            int(p.name): int(p.read_text())
            for p in done_dir.iterdir()
        }
        assert len(per_sched) == n_scheds
        assert sum(per_sched.values()) == n_jobs
        assert min(per_sched.values()) >= 1, per_sched
        assert max(per_sched.values()) <= n_jobs - (n_scheds - 1), per_sched

        # the journal agrees: distinct owners on the claimed events
        events, _ = queue.journal.events()
        owners = {
            e["owner"] for e in events if e.get("event") == "claimed"
        }
        assert owners == {f"sched-fair-{w}" for w in range(n_scheds)}
