"""Integration: crash isolation, retry-from-checkpoint, cache hits.

This is the acceptance scenario of the batch service: a batch of four
jobs on a two-worker pool, one job rigged to hard-kill its worker
process. The kill must not disturb the three siblings; the rigged job
is retried (resuming from its newest checkpoint) and — because every
attempt dies identically, the poison-job signature — finally
quarantined; resubmitting the identical batch completes the successful
jobs straight from the result cache with zero steps executed.
"""

import json
import os
import time

import numpy as np
import pytest
from lease_helpers import expire

from repro.io.batch_io import write_json_atomic
from repro.engine.runner import execute_spec
from repro.io.model_io import save_system
from repro.meshing.slope_models import build_brick_wall
from repro.service import BatchClient, JobSpec, JobState, RetryPolicy, WorkerPool
from repro.service.worker import find_resume_point


def healthy_spec(i: int) -> JobSpec:
    return JobSpec(
        model="wall", engine="serial", steps=4, time_step=1e-3,
        dynamic=True, tag=f"healthy-{i}",
    )


KILLER = JobSpec(
    model="wall", engine="serial", steps=6, time_step=1e-3, dynamic=True,
    checkpoint_every=2, kill_at_step=4, tag="killer",
)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """Run the 4-job batch once; the tests dissect the aftermath."""
    root = tmp_path_factory.mktemp("batch")
    client = BatchClient(root)
    killer_record = client.submit(KILLER)
    healthy_records = [client.submit(healthy_spec(i)) for i in range(3)]
    tallies = client.run(n_workers=2)
    return client, killer_record, healthy_records, tallies


class TestCrashIsolation:
    def test_siblings_all_succeed(self, batch):
        client, _killer, healthy_records, tallies = batch
        assert tallies["succeeded"] == 3
        for record in healthy_records:
            reloaded = client.queue.load_record(record.job_id)
            assert reloaded.state == JobState.SUCCEEDED
            outcome = client.result(record.job_id)
            assert outcome["status"] == "succeeded"
            assert outcome["steps_executed"] == 4
            assert outcome["failure"] is None

    def test_killed_job_retried_then_quarantined(self, batch):
        client, killer, _healthy, tallies = batch
        assert tallies["failed"] == 0
        assert tallies["quarantined"] == 1
        assert tallies["retried"] == 1
        reloaded = client.queue.load_record(killer.job_id)
        # both attempts died with the identical error: poison signature
        assert reloaded.state == JobState.QUARANTINED
        assert reloaded.attempts == 2  # first run + one retry
        assert "WorkerCrashed" in reloaded.error
        # every attempt was logged as a crash (exit code, no outcome)
        assert [a["crash"] for a in reloaded.attempt_log] == [True, True]
        assert reloaded.attempt_log[0]["exitcode"] == 137

    def test_retry_resumed_from_newest_checkpoint(self, batch):
        client, killer, _healthy, _tallies = batch
        checkpoints = client.scratch_root / killer.job_id / "checkpoints"

        # checkpoint dirs are stamped with the attempt's fencing epoch
        def attempt_dir(n):
            matches = sorted(checkpoints.glob(f"attempt-e*-{n:03d}"))
            assert matches, f"no checkpoint dir for attempt {n}"
            return matches[-1]

        # attempt 0 started from scratch and checkpointed up to step 4
        saved = sorted(p.name for p in attempt_dir(0).glob("*.npz"))
        assert saved[0] == "checkpoint_00000000.npz"
        assert "checkpoint_00000004.npz" in saved
        # attempt 1 resumed from step 4, not from zero: its one file is
        # the restored state, named on the same step axis
        resumed = sorted(p.name for p in attempt_dir(1).glob("*.npz"))
        assert resumed == ["checkpoint_00000004.npz"]

    def test_failure_report_written(self, batch):
        client, killer, _healthy, _tallies = batch
        outcome = client.result(killer.job_id)
        assert outcome["status"] == "quarantined"
        assert outcome["attempts"] == 2
        assert "WorkerCrashed" in outcome["error"]


class TestResubmissionHitsCache:
    def test_identical_batch_resolves_from_cache(self, batch):
        client, _killer, _healthy, _tallies = batch
        hits_before = client.store.stats()["hits"]
        # a fresh client on the same directory (scheduler restart)
        resubmit = BatchClient(client.root)
        records = [resubmit.submit(healthy_spec(i)) for i in range(3)]
        tallies = resubmit.run(n_workers=2)
        assert tallies == {
            "dispatched": 0, "cache_hits": 3,
            "succeeded": 3, "failed": 0, "retried": 0, "cancelled": 0,
            "quarantined": 0, "fenced": 0,
        }
        # the ResultStore hit counter is the proof of zero execution
        assert resubmit.store.stats()["hits"] == hits_before + 3
        for record in records:
            outcome = resubmit.result(record.job_id)
            assert outcome["status"] == "succeeded"
            assert outcome["cached"] is True
            assert outcome["steps_executed"] == 0

    def test_failed_spec_is_not_cached(self, batch):
        client, _killer, _healthy, _tallies = batch
        assert KILLER.spec_hash() not in client.store


class TestEngineFailureRetry:
    def test_fault_injected_job_fails_without_crashing(self, tmp_path):
        """A NaN planted in a stored model's velocities fails the job
        through the typed SimulationError path (no time step converges):
        the worker exits cleanly with a failure outcome (no crash), is
        retried, and — failing identically both times — ends up
        quarantined."""
        system = build_brick_wall(rows=2, cols=2)
        system.velocities[-1, 0] = np.nan
        save_system(system, tmp_path / "nan-velocity")
        client = BatchClient(tmp_path / "b")
        faulty = JobSpec(
            load=str(tmp_path / "nan-velocity"), engine="serial", steps=2,
            dynamic=True, tag="faulty",
        )
        record = client.submit(faulty)
        tallies = client.run(n_workers=1)
        assert tallies["quarantined"] == 1
        assert tallies["retried"] == 1
        reloaded = client.queue.load_record(record.job_id)
        assert reloaded.state == JobState.QUARANTINED
        assert reloaded.attempts == 2
        # both attempts reported a structured failure, not a crash
        for attempt in reloaded.attempt_log:
            assert attempt["status"] == "failed"
            assert attempt["error"] == "StepRejected"
            assert "crash" not in attempt


class TestFencedRetry:
    def test_superseded_retry_is_journalled_and_counted(self, tmp_path):
        """A zombie's retry is fenced by the queue's one check, so it is
        journalled and counted like a zombie's completion."""
        from repro.service.pool import _Slot

        client = BatchClient(tmp_path / "b")
        record = client.submit(
            healthy_spec(0), retry=RetryPolicy(max_attempts=3)
        )
        pool = WorkerPool(client.queue, client.store, client.scratch_root)
        claimed, ticket = client.queue.claim()
        # another scheduler re-claimed the job at a later epoch
        with client.queue.locked_record(record.job_id):
            current = client.queue.load_record(record.job_id)
            current.lease_epoch += 1
            client.queue.save_record(current)
        owners = client.queue.load_record(record.job_id).to_dict()
        claimed.attempts = 1
        pool._retry_or_fail(_Slot(
            None, claimed, ticket, tmp_path / "outcome.json", 0.0,
            claimed.lease_epoch, None,
        ), "WorkerCrashed")
        assert client.queue.journal.count("fenced") == 1
        assert pool.metrics.snapshot()["counters"]["batch.fenced_writes"] == 1
        assert (pool.stats["fenced"], pool.stats["retried"]) == (1, 0)
        # the new owner's record is untouched
        assert client.queue.load_record(record.job_id).to_dict() == owners


class TestConcurrentClientSafety:
    """A client opening the batch directory must never steal live work."""

    def _claim_as_running(self, client, record):
        claimed, ticket = client.queue.claim()
        assert claimed.job_id == record.job_id
        claimed.state = JobState.RUNNING
        claimed.worker_pid = os.getpid()  # certainly alive
        client.queue.save_record(claimed)
        return claimed, ticket

    def test_client_open_leaves_claimed_tickets_alone(self, tmp_path):
        """batch status/submit while 'batch run' drains: no ticket theft."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        self._claim_as_running(client, record)
        observer = BatchClient(client.root)  # e.g. a `batch status` call
        assert observer.queue.pending() == 0
        reloaded = observer.queue.load_record(record.job_id)
        assert reloaded.state == JobState.RUNNING
        assert reloaded.worker_pid == os.getpid()

    def test_recovery_spares_live_claimants(self, tmp_path):
        """Even explicit recovery is gated on claimant liveness."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        self._claim_as_running(client, record)
        assert client.queue.recover() == 0
        assert client.queue.load_record(record.job_id).state == JobState.RUNNING

    def test_pool_run_recovers_dead_claimants(self, tmp_path):
        """WorkerPool.run() reclaims tickets whose lease has expired."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        claimed, ticket = client.queue.claim()
        claimed.state = JobState.RUNNING
        client.queue.save_record(claimed)
        # simulate a dead scheduler: lease expired, ticket past grace
        expire(client.queue.leases, record.job_id)
        old = time.time() - 5.0
        os.utime(client.queue.claimed_dir / ticket, (old, old))
        tallies = client.run(n_workers=1)
        assert tallies["succeeded"] == 1
        assert client.queue.load_record(record.job_id).state == JobState.SUCCEEDED


class TestCancellationTombstone:
    def test_cancel_between_claim_and_dispatch_aborts(self, tmp_path):
        """A cancel racing the claim is honoured at dispatch time."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        pool = WorkerPool(client.queue, client.store, client.scratch_root)
        claimed = client.queue.claim()  # a pool won the claim race...
        assert client.cancel(record.job_id)  # ...then the user cancelled
        assert pool._dispatch(*claimed) is None  # no worker is spawned
        assert client.queue.load_record(record.job_id).state == JobState.CANCELLED
        assert pool.stats["cancelled"] == 1
        assert client.queue.claim() is None  # the ticket was retired

    def test_cancel_after_the_dispatch_check_completes_once(
        self, tmp_path, monkeypatch
    ):
        """A cancel landing between dispatch's tombstone check and its
        ``running`` save leaves the claimed record to the pool, so the
        attempt's own completion is the job's only one."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        pool = WorkerPool(client.queue, client.store, client.scratch_root)
        claimed = client.queue.claim()
        look = client.queue.is_cancelled

        def look_then_cancel(job_id):
            seen = look(job_id)  # no tombstone yet...
            assert client.cancel(job_id)  # ...then the user cancels
            return seen

        monkeypatch.setattr(client.queue, "is_cancelled", look_then_cancel)
        slot = pool._dispatch(*claimed)
        monkeypatch.undo()
        slot.process.join(timeout=60)
        assert not slot.process.is_alive()
        pool._finish(slot)
        assert client.queue.journal.count("completed") == 1
        assert client.queue.load_record(record.job_id).state in JobState.TERMINAL

    def test_cancelled_job_is_not_retried(self, tmp_path):
        """A tombstone seen at finish time suppresses the retry."""
        client = BatchClient(tmp_path / "b")
        doomed = JobSpec(
            model="wall", engine="serial", steps=4, dynamic=True,
            kill_at_step=1, tag="doomed",
        )
        record = client.submit(doomed, retry=RetryPolicy(max_attempts=4))
        (client.queue.cancelled_dir / record.job_id).touch()
        # tombstone-only (no record rewrite): claim still consumes it
        tallies = client.run(n_workers=1)
        assert tallies["retried"] == 0 and tallies["dispatched"] == 0
        assert client.queue.load_record(record.job_id).state == JobState.CANCELLED


class TestCacheAuthority:
    def test_recovered_job_still_hits_sibling_cache(self, tmp_path):
        """The cache is consulted on every dispatch, retries included."""
        client = BatchClient(tmp_path / "b")
        client.submit(healthy_spec(0))
        assert client.run(n_workers=1)["succeeded"] == 1  # seeds the cache
        record = client.submit(healthy_spec(0))
        reloaded = client.queue.load_record(record.job_id)
        reloaded.attempts = 1  # as left behind by a scheduler crash
        client.queue.save_record(reloaded)
        tallies = client.run(n_workers=1)
        assert tallies["cache_hits"] == 1
        assert tallies["dispatched"] == 0

    def test_resumed_success_caches_global_step_count(self, tmp_path):
        """A success resumed at step 4 of 6 caches the step it reached
        (6) and what its per-run fields cover: the 2 steps after 4."""
        client = BatchClient(tmp_path / "b")
        spec = healthy_spec(0)
        record = client.submit(spec)
        pool = WorkerPool(client.queue, client.store, client.scratch_root)
        claimed, ticket = client.queue.claim()
        outcome_path = client.scratch_root / record.job_id / "outcome.json"
        write_json_atomic(outcome_path, {
            "status": "succeeded", "attempt": 1, "pid": 1234,
            "steps_executed": 2, "resumed_from": 4, "total_steps": 6,
        })

        class _DoneProcess:
            exitcode = 0

        from repro.service.pool import _Slot
        claimed.attempts = 2
        pool._finish(_Slot(
            _DoneProcess(), claimed, ticket, outcome_path, 0.0,
            claimed.lease_epoch, None,
        ))
        entry = client.store.peek(spec.spec_hash())
        assert entry["steps_executed"] == 2
        assert entry["total_steps"] == 6
        assert entry["resumed_from"] == 4

    def test_resumed_cache_entry_says_it_holds_a_tail(self, tmp_path):
        """A kill-once job dies at step 3 of 6 and resumes there: its
        cache entry says so, and its per-run values are those of the
        three steps after the checkpoint, not the whole run's."""
        spec = JobSpec(
            model="wall", engine="serial", steps=6, dynamic=True,
            checkpoint_every=1, kill_at_step=3, kill_once=True,
            tag="resumed-entry",
        )
        client = BatchClient(tmp_path / "b")
        record = client.submit(spec)
        assert client.run(n_workers=1)["succeeded"] == 1
        entry = client.store.peek(spec.spec_hash())
        assert (entry["resumed_from"], entry["steps_executed"]) == (3, 3)
        assert entry["total_steps"] == 6
        cp = find_resume_point(client.scratch_root / record.job_id, 4)
        assert cp.step == 3
        _, _, tail = execute_spec(spec, resume_checkpoint=cp)
        _, _, whole = execute_spec(spec)
        for key in ("total_cg_iterations", "max_total_displacement"):
            assert entry[key] == tail[key] != whole[key]


class TestStatusSurface:
    def test_status_reflects_terminal_states(self, batch):
        client, _killer, _healthy, _tallies = batch
        status = client.status()
        assert status["counts"]["quarantined"] == 1
        assert status["counts"]["succeeded"] >= 3
        assert status["counts"]["queued"] == 0
        states = {row["job_id"]: row["state"] for row in status["jobs"]}
        assert JobState.QUARANTINED in states.values()
        assert json.dumps(status)  # JSON-serialisable for --json


class TestResultVisibility:
    def test_terminal_state_never_precedes_its_result(self, tmp_path):
        """A reader that sees a job succeeded / failed / quarantined
        finds its result: the outcome is published inside the terminal
        transition, not after it."""
        import threading

        client = BatchClient(tmp_path / "b")
        reader = BatchClient(tmp_path / "b")
        job_ids = [
            client.submit(JobSpec(
                model="wall", engine="serial", steps=2, time_step=1e-3,
                dynamic=True, tag=f"visible-{i}",
            )).job_id
            for i in range(20)
        ]
        settled = (JobState.SUCCEEDED, JobState.FAILED, JobState.QUARANTINED)
        pending, bare = set(job_ids), []
        drained = threading.Event()

        def poll():
            while pending:
                last_pass = drained.is_set()
                for job_id in sorted(pending):
                    row = reader.job(job_id)
                    if row is None or row["state"] not in settled:
                        continue
                    if reader.result(job_id) is None:
                        bare.append((job_id, row["state"]))
                    pending.discard(job_id)
                if last_pass:
                    break
                time.sleep(0.001)

        t = threading.Thread(target=poll, daemon=True)
        t.start()
        try:
            tallies = client.run(n_workers=2)
        finally:
            drained.set()
        t.join(timeout=30)
        assert not t.is_alive()
        assert tallies["succeeded"] == 20
        assert pending == set()
        assert bare == []

    def test_outcome_of_a_live_job_is_not_a_result(self, tmp_path):
        """An attempt that died between publishing and saving the
        terminal state leaves an outcome file behind a live record."""
        client = BatchClient(tmp_path / "b")
        record = client.submit(healthy_spec(0))
        write_json_atomic(
            client.scratch_root / record.job_id / "outcome-final.json",
            {"status": "succeeded"},
        )
        assert client.result(record) is None
