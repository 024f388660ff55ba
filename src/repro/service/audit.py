"""Journal auditor: proves the batch service's exactly-once claims.

``python -m repro batch audit`` replays the append-only job-event
journal (:mod:`repro.service.journal`) against the canonical job
records and asserts the durability invariants. The journal is written
*after* each record transition lands (journal lines are evidence, the
records are state), which fixes what the auditor may treat as a hard
violation versus a crash artefact:

Hard invariants (any breach is a *violation*; the audit fails):

``double_completion``
    A job has more than one ``completed`` event. Completion funnels
    through :meth:`JobQueue.finalize` under the per-job lock, so two
    ``completed`` lines mean the exactly-once machinery broke.
``stale_completion``
    A job's ``completed`` event carries an epoch below the highest
    ``claimed`` epoch — a zombie (superseded claimant) completed the
    job. Fencing exists precisely to make this impossible.
``duplicate_claim_epoch``
    The same fencing epoch was claimed twice. Epoch bumps happen under
    the record lock; a duplicate means two claimants shared an epoch
    and fencing could not tell them apart.
``state_mismatch``
    A ``completed`` event's status disagrees with the record's terminal
    state, or a ``completed`` event exists for a record that is not
    terminal.
``unsubmitted_activity``
    Events reference a job that was never submitted and has no record.
``lost_job`` / ``stuck_job`` (``--final`` only)
    After a campaign has fully drained, every submitted job must have a
    readable record in exactly one terminal state: a missing record is
    a lost job, and a non-terminal record is a stuck one. A record file
    that does not parse reads as missing (:func:`~repro.io.batch_io.
    read_json`), so its job is lost too.

Soft findings (*warnings*; reported but not fatal):

* a terminal record without a ``completed`` event — a scheduler killed
  in the instant between the record save and the journal append;
* torn trailing journal lines (a writer died mid-append);
* ``claimed`` events in non-monotonic epoch order — a paused scheduler
  journalling late; harmless because epochs, not journal order, decide
  fencing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.service.journal import Journal
from repro.service.queue import JobQueue
from repro.service.spec import JobState


def audit_journal(root: str | Path, *, final: bool = False) -> dict:
    """Audit one service root (the directory a BatchClient manages).

    Returns a report dict with ``violations`` (hard breaches),
    ``warnings`` (crash artefacts), per-event counts, and ``ok``.
    """
    root = Path(root)
    queue = JobQueue(root / "queue")
    journal = Journal(queue.root / "journal")
    events, torn = journal.events()
    records = {r.job_id: r for r in queue.records()}

    by_job: dict[str, list[dict]] = {}
    for event in events:
        job_id = event.get("job_id", "?")
        by_job.setdefault(job_id, []).append(event)
    event_counts = Counter(event.get("event", "?") for event in events)

    violations: list[dict] = []
    warnings: list[dict] = []

    def violation(kind: str, job_id: str, detail: str) -> None:
        violations.append({"kind": kind, "job_id": job_id, "detail": detail})

    def warning(kind: str, job_id: str, detail: str) -> None:
        warnings.append({"kind": kind, "job_id": job_id, "detail": detail})

    if torn:
        warning(
            "torn_journal_lines", "*",
            f"{torn} unparseable journal line(s) skipped "
            "(writer died mid-append)",
        )

    submitted = {
        j for j, evs in by_job.items()
        if any(e.get("event") == "submitted" for e in evs)
    }

    for job_id, evs in sorted(by_job.items()):
        if job_id == "-":
            # service-level events (HTTP server start/drain) use the
            # infrastructure job id "-": counted, never job-audited
            continue
        record = records.get(job_id)
        if job_id not in submitted and record is None:
            violation(
                "unsubmitted_activity", job_id,
                f"{len(evs)} event(s) for a job never submitted and "
                "without a record",
            )
            continue

        completed = [e for e in evs if e.get("event") == "completed"]
        claimed = [e for e in evs if e.get("event") == "claimed"]
        claim_epochs = [int(e.get("epoch", -1)) for e in claimed]

        if len(completed) > 1:
            violation(
                "double_completion", job_id,
                f"{len(completed)} completed events "
                f"(statuses: {[e.get('status') for e in completed]})",
            )
        if len(set(claim_epochs)) != len(claim_epochs):
            violation(
                "duplicate_claim_epoch", job_id,
                f"claimed epochs {claim_epochs} contain a duplicate",
            )
        elif claim_epochs != sorted(claim_epochs):
            warning(
                "claim_order", job_id,
                f"claimed epochs journalled out of order: {claim_epochs}",
            )
        if completed and claim_epochs:
            done_epoch = int(completed[0].get("epoch", -1))
            if done_epoch < max(claim_epochs):
                violation(
                    "stale_completion", job_id,
                    f"completed at epoch {done_epoch} but epoch "
                    f"{max(claim_epochs)} was claimed — a zombie "
                    "completed this job",
                )
        if completed:
            status = completed[0].get("status")
            if record is None:
                violation(
                    "state_mismatch", job_id,
                    f"completed({status}) journalled but no record exists",
                )
            elif record.state not in JobState.TERMINAL:
                violation(
                    "state_mismatch", job_id,
                    f"completed({status}) journalled but the record is "
                    f"{record.state!r}",
                )
            elif record.state != status:
                violation(
                    "state_mismatch", job_id,
                    f"journal says {status!r}, record says {record.state!r}",
                )

    for job_id, record in sorted(records.items()):
        evs = by_job.get(job_id, [])
        has_completed = any(e.get("event") == "completed" for e in evs)
        if record.state in JobState.TERMINAL and not has_completed:
            warning(
                "unjournalled_completion", job_id,
                f"record is {record.state!r} but no completed event — "
                "scheduler likely killed between save and journal append",
            )
        if final and record.state not in JobState.TERMINAL:
            violation(
                "stuck_job", job_id,
                f"campaign drained but the record is {record.state!r}",
            )

    if final:
        for job_id in sorted(submitted - set(records)):
            violation(
                "lost_job", job_id,
                "submitted but no record exists",
            )

    return {
        "ok": not violations,
        "jobs": len(records),
        "submitted": len(submitted),
        "events": len(events),
        "event_counts": dict(sorted(event_counts.items())),
        "state_counts": queue.counts(records.values()),
        "violations": violations,
        "warnings": warnings,
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of an audit report."""
    lines = [
        f"jobs audited      : {report['jobs']} "
        f"({report['submitted']} submitted)",
        f"journal events    : {report['events']}",
    ]
    for name, count in report["event_counts"].items():
        lines.append(f"  {name:<15}: {count}")
    lines.append("record states     :")
    for state, count in report["state_counts"].items():
        if count:
            lines.append(f"  {state:<15}: {count}")
    if report["violations"]:
        lines.append(f"VIOLATIONS ({len(report['violations'])}):")
        for v in report["violations"]:
            lines.append(f"  [{v['kind']}] {v['job_id']}: {v['detail']}")
    else:
        lines.append("violations        : none")
    if report["warnings"]:
        lines.append(f"warnings ({len(report['warnings'])}):")
        for w in report["warnings"]:
            lines.append(f"  [{w['kind']}] {w['job_id']}: {w['detail']}")
    lines.append("audit             : " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)
