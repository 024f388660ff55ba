"""Lease files: heartbeat-renewed worker liveness with fencing epochs.

The pid probe (``os.kill(pid, 0)``) the queue used to gate orphan
recovery on is unsound: pids are recycled, so a recycled pid makes a
dead claimant look alive forever (a lost job), and a pid observed
alive says nothing about *which* process owns it. Leases replace the
probe with something that is provable from the filesystem alone:

* claiming a ticket writes ``leases/<job_id>.json`` carrying a
  **fencing epoch** (monotonically increasing per job, persisted on
  the job record) plus the owner and a ``renewed_at`` timestamp;
* the worker process renews the lease from a heartbeat thread every
  ``ttl / 4`` seconds — renewal is a locked read-verify-write, so a
  renewal by a superseded epoch can never clobber the new owner's
  lease, and a worker whose epoch was superseded learns it on its next
  heartbeat and **fences itself** (exits without writing results);
* recovery treats a claimed ticket as orphaned exactly when its lease
  is missing or older than ``ttl`` — no pid arithmetic, no reuse
  hazard. The next claim bumps the epoch, so anything the previous
  owner still writes is identifiable as stale and rejected.

Lease mutations are serialised through a per-job lock file
(:func:`repro.io.batch_io.locked_fd`), closing the read-verify-write
race between a takeover's acquire and a zombie's renewal.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

from repro.io.batch_io import locked_fd, read_json, write_json_atomic

#: Default lease time-to-live in seconds. A worker heartbeats at
#: ``ttl / 4``, so the default tolerates three consecutive missed
#: heartbeats before the job is considered abandoned.
DEFAULT_TTL = 30.0


@dataclass(frozen=True)
class Lease:
    """One job's liveness claim (the content of a lease file)."""

    job_id: str
    epoch: int
    owner: str
    renewed_at: float
    ttl: float

    def expired(self, now: float | None = None) -> bool:
        now = time.time() if now is None else now
        return now - self.renewed_at > self.ttl

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Lease":
        return cls(**d)


class LeaseStore:
    """Directory of lease files, one per in-flight job."""

    def __init__(self, root: str | Path, *, ttl: float = DEFAULT_TTL) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.ttl = float(ttl)

    # ------------------------------------------------------------------
    def path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _lock(self, job_id: str) -> Path:
        return self.root / f".{job_id}.lk"

    def peek(self, job_id: str) -> Lease | None:
        d = read_json(self.path(job_id))
        if d is None:
            return None
        try:
            return Lease.from_dict(d)
        except TypeError:
            return None  # schema drift / torn file: treat as absent

    # ------------------------------------------------------------------
    def acquire(self, job_id: str, epoch: int, owner: str) -> Lease:
        """Write the lease for a fresh claim (called with the claim's
        record lock held, so the epoch is already authoritative)."""
        lease = Lease(job_id, epoch, owner, time.time(), self.ttl)
        with locked_fd(self._lock(job_id)):
            write_json_atomic(self.path(job_id), lease.to_dict())
        return lease

    def renew(self, job_id: str, epoch: int, owner: str) -> bool:
        """Heartbeat: refresh ``renewed_at`` iff the lease is still ours.

        Returns ``False`` when the lease is missing or carries a
        different epoch/owner — the caller has been fenced and must
        stop producing side effects immediately. The verify and the
        rewrite happen under the per-job lock, so a stale renewal can
        never overwrite a successor's lease.
        """
        with locked_fd(self._lock(job_id)):
            current = self.peek(job_id)
            if (
                current is None
                or current.epoch != epoch
                or current.owner != owner
            ):
                return False
            write_json_atomic(
                self.path(job_id),
                Lease(job_id, epoch, owner, time.time(), self.ttl).to_dict(),
            )
            return True

    def release(self, job_id: str) -> None:
        """Drop the lease (job reached a terminal state or was requeued)."""
        self.path(job_id).unlink(missing_ok=True)
        self._lock(job_id).unlink(missing_ok=True)
