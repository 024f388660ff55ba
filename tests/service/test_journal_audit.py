"""Journal + auditor: the evidence trail and the invariants it proves."""

import json
import multiprocessing
import os
import signal

import pytest
from lease_helpers import expire

from repro.service.audit import audit_journal, format_report
from repro.service.journal import Journal
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec, JobState


def spec(tag: str) -> JobSpec:
    return JobSpec(model="wall", engine="serial", steps=2, tag=tag)


class TestJournal:
    def test_append_preserves_order_and_fields(self, tmp_path):
        j = Journal(tmp_path / "journal")
        j.append("submitted", "j1", priority=3)
        j.append("claimed", "j1", epoch=1, owner="sched-x")
        events, torn = j.events()
        assert torn == 0
        assert [e["event"] for e in events] == ["submitted", "claimed"]
        assert events[1]["epoch"] == 1
        assert events[1]["owner"] == "sched-x"
        assert all("ts" in e for e in events)

    def test_torn_trailing_line_is_skipped_and_counted(self, tmp_path):
        j = Journal(tmp_path / "journal")
        j.append("submitted", "j1")
        # a writer died mid-append: a partial line with no newline
        with open(j.path, "ab") as fh:
            fh.write(b'{"event": "claimed", "job')
        events, torn = j.events()
        assert [e["event"] for e in events] == ["submitted"]
        assert torn == 1
        # appends after the torn line still parse (O_APPEND line atomicity
        # is per-write; the recovery property is that *later* complete
        # lines survive a predecessor's torn one)
        with open(j.path, "ab") as fh:
            fh.write(b"\n")
        j.append("completed", "j1", status="succeeded")
        events, torn = j.events()
        assert [e["event"] for e in events] == ["submitted", "completed"]

    def test_count(self, tmp_path):
        j = Journal(tmp_path / "journal")
        for _ in range(3):
            j.append("heartbeat", "j1")
        assert j.count("heartbeat") == 3
        assert j.count("completed") == 0


@pytest.fixture
def root(tmp_path):
    return tmp_path / "svc"


@pytest.fixture
def queue(root) -> JobQueue:
    return JobQueue(root / "queue")


def kinds(report: dict) -> set[str]:
    return {v["kind"] for v in report["violations"]}


def warning_kinds(report: dict) -> set[str]:
    return {w["kind"] for w in report["warnings"]}


class TestAuditCleanFlow:
    def test_lifecycle_passes(self, root, queue):
        record = queue.submit(spec("clean"))
        claimed, ticket = queue.claim()
        queue.finalize(record.job_id, JobState.SUCCEEDED,
                       epoch=claimed.lease_epoch)
        queue.ack(ticket)
        report = audit_journal(root, final=True)
        assert report["ok"], report["violations"]
        assert report["violations"] == []
        assert report["event_counts"]["submitted"] == 1
        assert report["event_counts"]["claimed"] == 1
        assert report["event_counts"]["completed"] == 1
        assert report["state_counts"][JobState.SUCCEEDED] == 1
        assert "audit             : PASS" in format_report(report)

    def test_fenced_write_passes_the_audit(self, root, queue):
        """A rejected zombie write is the mechanism *working*."""
        record = queue.submit(spec("fenced"))
        claimed, ticket = queue.claim()
        stale_epoch = claimed.lease_epoch
        # the lease expires; a second scheduler re-claims at a new epoch
        expire(queue.leases, record.job_id)
        queue.requeue(ticket)
        claimed2, ticket2 = queue.claim()
        assert claimed2.lease_epoch == stale_epoch + 1
        published = []

        def publish(rec):
            on_disk = queue.load_record(rec.job_id)
            published.append((rec.state, on_disk.state in JobState.TERMINAL))

        # the zombie's late completion is fenced (and publishes nothing)...
        assert queue.finalize(
            record.job_id, JobState.FAILED, epoch=stale_epoch, publish=publish
        ) is None
        assert published == []
        # ...and the live owner completes exactly once, its result
        # landing before the terminal state is saved
        queue.finalize(record.job_id, JobState.SUCCEEDED,
                       epoch=claimed2.lease_epoch, publish=publish)
        assert published == [(JobState.SUCCEEDED, False)]
        assert queue.finalize(
            record.job_id, JobState.SUCCEEDED, publish=publish
        ) is None  # already terminal: nothing left to publish
        assert len(published) == 1
        queue.ack(ticket2)
        report = audit_journal(root, final=True)
        assert report["ok"], report["violations"]
        assert report["event_counts"]["fenced"] == 1


class TestAuditViolations:
    def test_double_completion(self, root, queue):
        record = queue.submit(spec("dup"))
        claimed, ticket = queue.claim()
        queue.finalize(record.job_id, JobState.SUCCEEDED,
                       epoch=claimed.lease_epoch)
        # a broken scheduler completes it a second time
        queue.journal.append("completed", record.job_id,
                             status=JobState.SUCCEEDED,
                             epoch=claimed.lease_epoch)
        report = audit_journal(root)
        assert not report["ok"]
        assert "double_completion" in kinds(report)

    def test_stale_completion(self, root, queue):
        record = queue.submit(spec("zombie"))
        claimed, _ticket = queue.claim()
        # a second claim supersedes the first...
        queue.journal.append("claimed", record.job_id,
                             epoch=claimed.lease_epoch + 1, owner="sched-b")
        # ...but the *old* epoch completes the job (fencing failed)
        record.state = JobState.SUCCEEDED
        queue.save_record(record)
        queue.journal.append("completed", record.job_id,
                             status=JobState.SUCCEEDED,
                             epoch=claimed.lease_epoch)
        report = audit_journal(root)
        assert "stale_completion" in kinds(report)

    def test_duplicate_claim_epoch(self, root, queue):
        record = queue.submit(spec("twin"))
        queue.journal.append("claimed", record.job_id, epoch=1, owner="a")
        queue.journal.append("claimed", record.job_id, epoch=1, owner="b")
        report = audit_journal(root)
        assert "duplicate_claim_epoch" in kinds(report)

    def test_state_mismatch(self, root, queue):
        record = queue.submit(spec("liar"))
        record.state = JobState.FAILED
        queue.save_record(record)
        queue.journal.append("completed", record.job_id,
                             status=JobState.SUCCEEDED, epoch=1)
        report = audit_journal(root)
        assert "state_mismatch" in kinds(report)

    def test_unsubmitted_activity(self, root, queue):
        queue.journal.append("claimed", "j-ghost", epoch=1, owner="a")
        report = audit_journal(root)
        assert "unsubmitted_activity" in kinds(report)

    def test_final_flags_stuck_and_lost_jobs(self, root, queue):
        stuck = queue.submit(spec("stuck"))  # stays queued
        lost = queue.submit(spec("lost"))
        os.unlink(queue.jobs_dir / f"{lost.job_id}.json")
        report = audit_journal(root, final=True)
        assert "stuck_job" in kinds(report)
        assert "lost_job" in kinds(report)
        # without --final the same directory merely looks in-flight
        relaxed = audit_journal(root, final=False)
        assert "stuck_job" not in kinds(relaxed)
        assert stuck.job_id in {
            v["job_id"] for v in report["violations"]
        }


class TestTornRecordAudit:
    def test_torn_record_warns_then_fails_final(self, root, queue):
        record = queue.submit(spec("torn"))
        path = queue.jobs_dir / f"{record.job_id}.json"
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        relaxed = audit_journal(root)
        assert relaxed["ok"]  # the owner's retry may still heal it
        assert "torn_record" in warning_kinds(relaxed)
        report = audit_journal(root, final=True)
        assert not report["ok"]
        assert "torn_record" in kinds(report)
        # torn is reported as torn, not double-counted as lost
        assert "lost_job" not in kinds(report)


class TestAuditWarnings:
    def test_unjournalled_completion_is_a_warning(self, root, queue):
        record = queue.submit(spec("quiet"))
        # killed between the record save and the journal append
        record.state = JobState.SUCCEEDED
        queue.save_record(record)
        report = audit_journal(root, final=True)
        assert report["ok"]
        assert "unjournalled_completion" in warning_kinds(report)

    def test_a_kill_between_save_and_append_is_only_a_warning(self, root, queue):
        """``JobQueue._complete`` saves the terminal record, then journals
        it: a process SIGKILLed in between leaves exactly one
        ``unjournalled_completion`` warning and a passing audit."""
        record = queue.submit(spec("killed"))
        claimed, _ticket = queue.claim()

        def finalize_and_die_before_the_append():
            append = queue.journal.append

            def dying(event, *args, **kwargs):
                if event == "completed":
                    os.kill(os.getpid(), signal.SIGKILL)
                return append(event, *args, **kwargs)

            queue.journal.append = dying
            queue.finalize(record.job_id, JobState.SUCCEEDED,
                           epoch=claimed.lease_epoch)

        child = multiprocessing.get_context("fork").Process(
            target=finalize_and_die_before_the_append
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL
        assert queue.load_record(record.job_id).state == JobState.SUCCEEDED
        report = audit_journal(root, final=True)
        assert report["ok"], report["violations"]
        assert "completed" not in report["event_counts"]
        assert [
            (w["kind"], w["job_id"]) for w in report["warnings"]
        ] == [("unjournalled_completion", record.job_id)]

    def test_torn_lines_are_a_warning(self, root, queue):
        queue.submit(spec("torn"))
        with open(queue.journal.path, "ab") as fh:
            fh.write(b"not json at all\n")
        report = audit_journal(root)
        assert report["ok"]
        assert "torn_journal_lines" in warning_kinds(report)

    def test_out_of_order_claims_are_a_warning(self, root, queue):
        record = queue.submit(spec("late"))
        queue.journal.append("claimed", record.job_id, epoch=2, owner="b")
        queue.journal.append("claimed", record.job_id, epoch=1, owner="a")
        report = audit_journal(root)
        assert report["ok"]
        assert "claim_order" in warning_kinds(report)


class TestAuditCli:
    def test_audit_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        batch_dir = str(tmp_path / "b")
        main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
              "--engine", "serial", "--steps", "2"])
        main(["batch", "run", "--dir", batch_dir, "--quiet"])
        capsys.readouterr()
        assert main(["batch", "audit", "--dir", batch_dir, "--final",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["event_counts"]["completed"] == 1
        # plant a second completion: the audit must now fail
        queue = JobQueue(tmp_path / "b" / "queue")
        job_id = queue.records()[0].job_id
        queue.journal.append("completed", job_id,
                             status=JobState.SUCCEEDED, epoch=1)
        assert main(["batch", "audit", "--dir", batch_dir]) == 1
        out = capsys.readouterr().out
        assert "double_completion" in out
        assert "FAIL" in out
