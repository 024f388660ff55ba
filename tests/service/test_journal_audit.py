"""Journal + auditor: the evidence trail and the invariants it proves."""

import inspect
import json
import multiprocessing
import os
import re
import signal
from typing import Callable, NamedTuple

import pytest
from lease_helpers import expire

from repro.service import audit as audit_module
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


def plant_double_completion(queue):
    record = queue.submit(spec("dup"))
    claimed, _ticket = queue.claim()
    queue.finalize(record.job_id, JobState.SUCCEEDED,
                   epoch=claimed.lease_epoch)
    # a broken scheduler completes it a second time
    queue.journal.append("completed", record.job_id,
                         status=JobState.SUCCEEDED, epoch=claimed.lease_epoch)


def plant_stale_completion(queue):
    record = queue.submit(spec("zombie"))
    claimed, _ticket = queue.claim()
    # a second claim supersedes the first...
    queue.journal.append("claimed", record.job_id,
                         epoch=claimed.lease_epoch + 1, owner="sched-b")
    # ...but the *old* epoch completes the job (fencing failed)
    record.state = JobState.SUCCEEDED
    queue.save_record(record)
    queue.journal.append("completed", record.job_id,
                         status=JobState.SUCCEEDED, epoch=claimed.lease_epoch)


def plant_duplicate_claim_epoch(queue):
    record = queue.submit(spec("twin"))
    queue.journal.append("claimed", record.job_id, epoch=1, owner="a")
    queue.journal.append("claimed", record.job_id, epoch=1, owner="b")


def plant_state_mismatch(queue):
    record = queue.submit(spec("liar"))
    record.state = JobState.FAILED
    queue.save_record(record)
    queue.journal.append("completed", record.job_id,
                         status=JobState.SUCCEEDED, epoch=1)


def plant_unsubmitted_activity(queue):
    queue.journal.append("claimed", "j-ghost", epoch=1, owner="a")


def plant_stuck_job(queue):
    queue.submit(spec("stuck"))  # stays queued


def plant_lost_job(queue):
    record = queue.submit(spec("lost"))
    os.unlink(queue.jobs_dir / f"{record.job_id}.json")


def plant_corrupt_record(queue):
    record = queue.submit(spec("corrupt"))
    path = queue.jobs_dir / f"{record.job_id}.json"
    path.write_bytes(path.read_bytes()[:40])


class Row(NamedTuple):
    """One planted defect: the violation kind it must raise alone, and
    whether it shows only at ``--final`` (before, it is work in flight)."""

    kind: str
    final: bool
    plant: Callable[[JobQueue], None]


#: The audit's planted-defect table: one row per violation kind
#: ``audit_journal`` raises, plus a record file that does not parse —
#: it reads as absent, so its job is lost at ``--final``.
PLANTED = {
    "double_completion": Row("double_completion", False,
                             plant_double_completion),
    "stale_completion": Row("stale_completion", False,
                            plant_stale_completion),
    "duplicate_claim_epoch": Row("duplicate_claim_epoch", False,
                                 plant_duplicate_claim_epoch),
    "state_mismatch": Row("state_mismatch", False, plant_state_mismatch),
    "unsubmitted_activity": Row("unsubmitted_activity", False,
                                plant_unsubmitted_activity),
    "stuck_job": Row("stuck_job", True, plant_stuck_job),
    "lost_job": Row("lost_job", True, plant_lost_job),
    "corrupt_record": Row("lost_job", True, plant_corrupt_record),
}


def test_every_violation_kind_has_a_planted_defect():
    """Read from ``audit.py``'s source, so a new invariant needs a row."""
    source = inspect.getsource(audit_module)
    raised = set(re.findall(r'violation\(\s*"(\w+)"', source))
    assert {row.kind for row in PLANTED.values()} == raised


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_is_the_only_violation(name, root, queue):
    kind, final, plant = PLANTED[name]
    plant(queue)
    if final:
        assert audit_journal(root)["violations"] == []
    report = audit_journal(root, final=final)
    assert not report["ok"]
    assert kinds(report) == {kind}, report["violations"]


class TestAuditViolations:
    """Each violation kind by name, over the table's defects (the table
    also requires that no other kind fires)."""

    def test_double_completion(self, root, queue):
        plant_double_completion(queue)
        report = audit_journal(root)
        assert not report["ok"]
        assert "double_completion" in kinds(report)

    def test_stale_completion(self, root, queue):
        plant_stale_completion(queue)
        assert "stale_completion" in kinds(audit_journal(root))

    def test_duplicate_claim_epoch(self, root, queue):
        plant_duplicate_claim_epoch(queue)
        assert "duplicate_claim_epoch" in kinds(audit_journal(root))

    def test_state_mismatch(self, root, queue):
        plant_state_mismatch(queue)
        assert "state_mismatch" in kinds(audit_journal(root))

    def test_unsubmitted_activity(self, root, queue):
        plant_unsubmitted_activity(queue)
        assert "unsubmitted_activity" in kinds(audit_journal(root))

    def test_final_flags_stuck_and_lost_jobs(self, root, queue):
        plant_stuck_job(queue)
        plant_lost_job(queue)
        report = audit_journal(root, final=True)
        assert kinds(report) == {"stuck_job", "lost_job"}
        # without --final the same directory merely looks in-flight
        assert audit_journal(root, final=False)["ok"]


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
