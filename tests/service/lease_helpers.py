"""Lease helpers only tests call: whether a live lease exists, and a
claimant that stopped renewing (its lease aged past the ttl)."""

import dataclasses
import time

from repro.io.batch_io import locked_fd, write_json_atomic
from repro.service.lease import LeaseStore


def alive(store: LeaseStore, job_id: str, now: float | None = None) -> bool:
    """True when a current, unexpired lease exists for ``job_id``."""
    lease = store.peek(job_id)
    return lease is not None and not lease.expired(now)


def expire(store: LeaseStore, job_id: str) -> None:
    """Age ``job_id``'s lease past its ttl, keeping epoch and owner."""
    lease = store.peek(job_id)
    if lease is None:
        return
    aged = dataclasses.replace(
        lease, renewed_at=time.time() - 2.0 * store.ttl - 1.0
    )
    with locked_fd(store._lock(job_id)):
        write_json_atomic(store.path(job_id), aged.to_dict())
