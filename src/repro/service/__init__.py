"""Batch simulation service: queue, workers, result cache, scheduling.

The paper's campaigns (Case 1/Case 2 sweeps) are thousands of
independent long runs; this package is the serving layer that
orchestrates them on top of the per-run survival primitives from
:mod:`repro.engine.resilience`:

* :class:`~repro.service.spec.JobSpec` — a declarative, content-hashed
  description of one run (model, engine, steps, controls, crash knobs);
* :class:`~repro.service.queue.JobQueue` — a persistent on-disk queue
  with atomic rename-based claim/ack, priority ordering, and
  lease-based orphan recovery after a killed scheduler;
* :class:`~repro.service.lease.LeaseStore` — heartbeat-renewed liveness
  claims with fencing epochs, so a superseded (zombie) claimant can
  never complete a job the new owner re-runs;
* :class:`~repro.service.spec.RetryPolicy` — per-job retry budget with
  exponential seeded backoff and poison-job quarantine;
* :class:`~repro.service.store.ResultStore` — a content-addressed cache
  of result summaries + final states keyed by spec hash, so
  resubmitting an identical spec skips execution entirely;
* :class:`~repro.service.pool.WorkerPool` — runs jobs in separate
  ``multiprocessing`` processes, so one job's crash or NaN blow-up
  cannot take down its siblings; dead workers are detected, retried
  from their newest valid checkpoint, and finally reported failed (or
  quarantined when every attempt dies identically);
* :class:`~repro.service.journal.Journal` — the append-only job-event
  trail ``python -m repro batch audit`` replays to prove exactly-once
  completion, and ``batch soak`` (one driver over the scenario table
  :data:`repro.service.soak.SCENARIOS`) ends every chaos campaign with;
  it is evidence for those readers, never read to serve a request;
* :mod:`repro.service.chaos` — the one seeded fault-injection module:
  :class:`~repro.service.chaos.IOFaultPlan` arms the storage seam
  (``ENOSPC``, a crash after the rename, IO latency — the three
  outcomes of the atomic replace) the durability claims are tested
  under, and :class:`~repro.service.chaos.NetFaultPlan` the network
  seam (connection resets, latency) the
  service claims are tested under via
  ``python -m repro batch soak --scenario api``; each process entry
  arms its seams explicitly (``install`` / ``install_from_env``);
* :class:`~repro.service.client.BatchClient` — the programmatic facade
  behind the ``python -m repro batch`` CLI;
* :class:`~repro.service.http.HttpJobService` — the asyncio HTTP/JSON
  front-end (``python -m repro batch serve``): idempotent submission by
  spec hash, admission control and queue-depth load shedding with
  ``Retry-After`` backpressure, per-tenant rate limits, deadline
  propagation, and SIGTERM graceful drain (docs/service-api.md);
* :class:`~repro.service.netclient.ServiceClient` — the retrying HTTP
  client that absorbs transport faults with seeded backoff.
"""

from repro.service.chaos import (
    IOFaultInjector,
    IOFaultPlan,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.service.client import BatchClient
from repro.service.http import BackgroundServer, HttpJobService, ServiceConfig
from repro.service.journal import Journal
from repro.service.lease import Lease, LeaseStore
from repro.service.netclient import ClientRetry, ServiceClient
from repro.service.pool import WorkerPool
from repro.service.queue import JobQueue
from repro.service.spec import JobRecord, JobSpec, JobState, RetryPolicy
from repro.service.store import ResultStore

__all__ = [
    "BackgroundServer",
    "BatchClient",
    "ClientRetry",
    "HttpJobService",
    "IOFaultInjector",
    "IOFaultPlan",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "Journal",
    "Lease",
    "LeaseStore",
    "NetFaultInjector",
    "NetFaultPlan",
    "ResultStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "WorkerPool",
]
