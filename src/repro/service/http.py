"""``repro.service.http`` — asyncio HTTP/JSON front-end over the batch core.

The single-box batch service (queue, lease-fenced scheduling, result
cache, journal) stays exactly as proven by ``batch soak``/``batch
audit``; this module puts a network face on it without adding any new
authority: the HTTP server is *one more observer/submitter process* over
the same batch directory, so any number of servers and scheduler
processes can share a queue, and killing any of them loses nothing the
PR-6 lease/epoch machinery cannot recover.

Stdlib only (``asyncio`` streams + a minimal HTTP/1.1 parser). One
connection carries one request (``Connection: close``), which keeps the
failure model identical to the chaos faults injected by
:mod:`repro.service.chaos`.

Endpoints
---------

===============================  ====================================
``POST /v1/jobs``                submit (idempotent by spec hash)
``GET  /v1/jobs``                list + queue-depth buckets
``GET  /v1/jobs/<id>``           one job's status (+ lease/epoch)
``GET  /v1/jobs/<id>/result``    final outcome (202 while running)
``POST /v1/jobs/<id>/cancel``    tombstone cancel
``GET  /healthz``                liveness (always served, never shed)
``GET  /readyz``                 readiness (503 while draining/shedding)
``GET  /metrics``                metrics registry snapshot
===============================  ====================================

The robustness envelope
-----------------------

* **Idempotent submission.** A submit is keyed by the JobSpec content
  hash: a dedup index maps hash → job id, so a client that lost the
  response to a connection reset can resubmit the identical spec and
  get the *same* job back (``deduplicated: true``) instead of forking a
  duplicate execution. Failed/cancelled jobs release their dedup entry
  so an explicit re-request forks a fresh job.
* **Admission control.** In-flight requests are bounded
  (:data:`MAX_INFLIGHT`); a submit against a queue deeper than
  ``max_queue_depth`` is rejected — both with ``429`` and a
  ``Retry-After`` hint, the contract the retrying client
  (:mod:`repro.service.netclient`) honours.
* **Per-tenant rate limits.** A token bucket per ``X-Tenant`` header
  (capacity/refill configurable); exhausted buckets get ``429`` with
  the exact refill wait in ``Retry-After``.
* **Load shedding.** When the queue depth passes ``shed_queue_depth``,
  non-health traffic is shed with ``503`` — the service protects the
  backlog it already accepted. No request reads the job journal: it is
  the auditor's evidence, and it grows with the campaign.
* **Deadline propagation.** ``X-Deadline-S`` bounds the handler
  (``504`` past it) and, on submits, is propagated into the job's
  :class:`~repro.service.spec.RetryPolicy.attempt_deadline_s` so the
  scheduler enforces the caller's budget end-to-end.
* **Graceful drain.** :meth:`BackgroundServer.stop` (which ``batch
  serve`` calls on SIGTERM or SIGINT) flips ``/readyz`` to 503, stops
  accepting connections, lets in-flight requests finish within
  :data:`DRAIN_GRACE_S`, persists the metrics snapshot, journals the drain,
  and exits 0. Queued jobs are untouched — schedulers keep draining
  them — so a rolling server restart is invisible to the campaign.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from repro.io.batch_io import locked_fd, read_json, write_json_atomic
from repro.obs.metrics import MetricsRegistry
from repro.service.chaos import NetFaultInjector
from repro.service.client import BatchClient
from repro.service.queue import MAX_PRIORITY
from repro.service.spec import JobSpec, JobState, RetryPolicy

#: Written next to the queue once the server is listening; removed on
#: drain. Clients (and the soak driver) discover the bound port here.
SERVER_INFO_FILE = "http.json"

#: job_id used for service-level journal events (server start/drain);
#: the auditor treats it as infrastructure, not a job.
SERVICE_JOB_ID = "-"

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024

#: Handler budget when the request carries no X-Deadline-S.
DEFAULT_TIMEOUT_S = 30.0
#: Concurrent requests admitted before fail-fast 429s.
MAX_INFLIGHT = 64
#: How long a drain waits for in-flight requests before exiting [s].
DRAIN_GRACE_S = 10.0
#: Persist the metrics snapshot every this many requests (and on drain).
METRICS_FLUSH_EVERY = 50


def _reject_constant(name: str):
    """JSON has no ``NaN`` or ``Infinity``: a body holding one is refused
    before a NaN can slip past a range check."""
    raise ValueError(f"{name} is not JSON")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one HTTP front-end process."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in http.json
    #: Submits are rejected (429) when this many tickets are queued.
    max_queue_depth: int = 512
    #: All non-health traffic is shed (503) past this queue depth.
    shed_queue_depth: int = 1024
    #: Token bucket per tenant: burst capacity and steady refill.
    rate_capacity: float = 50.0
    rate_refill_per_s: float = 25.0

    def __post_init__(self) -> None:
        """A NaN bucket admits everything and a depth below 1 refuses
        everything, so each tunable is checked on the way in."""
        for name, low in (
            ("max_queue_depth", 1), ("shed_queue_depth", 1),
            ("rate_capacity", 1), ("rate_refill_per_s", 0),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= low):
                raise ValueError(f"{name} must be finite and >= {low}, got {value}")


class TokenBucket:
    """Continuous-refill token bucket (one per tenant)."""

    __slots__ = ("capacity", "refill_per_s", "tokens", "stamp")

    def __init__(self, capacity: float, refill_per_s: float) -> None:
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.tokens = float(capacity)
        self.stamp = time.monotonic()

    def take(self, now: float | None = None) -> float:
        """Take one token; returns 0.0 on success or the seconds until
        the next token becomes available (the Retry-After hint)."""
        now = time.monotonic() if now is None else now
        self.tokens = min(
            self.capacity, self.tokens + (now - self.stamp) * self.refill_per_s
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        if self.refill_per_s <= 0:
            return 60.0
        return (1.0 - self.tokens) / self.refill_per_s


class _Response(Exception):
    """Internal control flow: raise to short-circuit to a response."""

    def __init__(self, status: int, payload: dict, headers=None) -> None:
        super().__init__(status)
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})

    @classmethod
    def backoff(cls, status: int, error: str, retry_after: str | None = None):
        """A retriable rejection: the ``retriable`` payload flag plus the
        ``Retry-After`` hint :mod:`repro.service.netclient` honours."""
        return cls(
            status, {"error": error, "retriable": True},
            {} if retry_after is None else {"Retry-After": retry_after},
        )


_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpJobService:
    """One async HTTP front-end process over a batch directory."""

    def __init__(
        self,
        root: str | Path,
        config: ServiceConfig | None = None,
        *,
        log=None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self.client = BatchClient(self.root)
        self.queue = self.client.queue
        self.dedup_dir = self.queue.root / "dedup"
        self.dedup_dir.mkdir(parents=True, exist_ok=True)
        self._log = log or (lambda msg: None)
        self.metrics = MetricsRegistry()
        for name in (
            "http.requests", "http.responses.2xx", "http.responses.4xx",
            "http.responses.5xx", "http.submitted", "http.deduplicated",
            "http.rate_limited", "http.shed", "http.deadline_exceeded",
            "http.net_faults", "http.drains",
        ):
            self.metrics.counter(name)
        injector = NetFaultInjector.armed
        if injector is not None:
            injector.bind_metrics(self.metrics)
        self.draining = False
        self.inflight = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._server: asyncio.AbstractServer | None = None
        self._drained = asyncio.Event()
        self._requests_since_flush = 0
        # cached backpressure signals (refreshing them per request would
        # turn every GET into a directory scan)
        self._depth_cache: tuple[float, int] = (0.0, 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; writes the ``http.json`` info file."""
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.host, self.port = host, int(port)
        write_json_atomic(
            self.root / SERVER_INFO_FILE,
            {"host": host, "port": self.port, "pid": os.getpid(),
             "started_at": time.time()},
        )
        self.queue.journal.append(
            "server_started", SERVICE_JOB_ID,
            host=host, port=self.port, pid=os.getpid(),
        )
        self._log(f"http: serving {host}:{self.port} over {self.root}")
        return self._server

    async def drain(self) -> float:
        """Graceful shutdown: stop accepting, finish in-flight, persist.

        Returns the drain duration in seconds. Idempotent — a second
        SIGTERM while draining is a no-op.
        """
        if self.draining:
            await self._drained.wait()
            return 0.0
        t0 = time.monotonic()
        self.draining = True
        self.metrics.inc("http.drains")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + DRAIN_GRACE_S
        while self.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drain_s = time.monotonic() - t0
        self.metrics.gauge("http.drain_s").set(drain_s)
        self._flush_metrics()
        try:
            (self.root / SERVER_INFO_FILE).unlink(missing_ok=True)
        except OSError:
            pass
        try:
            self.queue.journal.append(
                "server_drained", SERVICE_JOB_ID,
                pid=os.getpid(), drain_s=drain_s,
                inflight_left=self.inflight,
            )
        except OSError:
            pass
        self._drained.set()
        self._log(f"http: drained in {drain_s:.2f}s "
                  f"({self.inflight} request(s) abandoned)")
        return drain_s

    def _flush_metrics(self) -> None:
        """Persist the registry for ``repro report <dir>`` (best effort)."""
        try:
            write_json_atomic(
                self.root / "metrics" / f"http-{os.getpid()}.json",
                self.metrics.snapshot(),
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # backpressure signals
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        now = time.monotonic()
        stamp, depth = self._depth_cache
        if now - stamp > 0.5:
            depth = self.queue.pending()
            self._depth_cache = (now, depth)
        return depth

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.rate_capacity, self.config.rate_refill_per_s
            )
        return bucket

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        injector = NetFaultInjector.armed
        try:
            method, path, headers, body = await asyncio.wait_for(
                self._read_request(reader), timeout=15.0
            )
        except _Response as resp:
            # a request too malformed to route still gets its answer:
            # a bare close would read as a transport fault and be retried
            await self._send(writer, resp.status, resp.payload, resp.headers)
            return
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            writer.close()
            return
        self.metrics.inc("http.requests")
        fault = injector.decide(path) if injector is not None else None
        if fault == "net_latency":
            await asyncio.sleep(injector.latency())
            fault = None
        if fault == "conn_reset" and injector.reset_before_handling():
            writer.transport.abort()
            return
        self.inflight += 1
        try:
            status, payload, extra = await self._admit_and_dispatch(
                method, path, headers, body
            )
        finally:
            self.inflight -= 1
        self._requests_since_flush += 1
        if self._requests_since_flush >= METRICS_FLUSH_EVERY:
            self._requests_since_flush = 0
            self._flush_metrics()
        await self._send(writer, status, payload, extra, fault)

    async def _send(self, writer, status, payload, extra, fault=None) -> None:
        """Serialise and write one response (acting out ``conn_reset``)."""
        self.metrics.inc(f"http.responses.{status // 100}xx")
        blob = json.dumps(payload, sort_keys=True).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            "Connection: close",
        ]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode() + blob
        try:
            if fault == "conn_reset":
                # the request took effect; the response is lost — the
                # client's idempotent resubmission absorbs this
                writer.transport.abort()
                return
            writer.write(raw)
            await writer.drain()
            writer.close()
        except (OSError, ConnectionError):
            pass  # the peer gave up first; nothing to unwind

    async def _read_request(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            head = None  # no header terminator within the stream limit
        if head is None or len(head) > _MAX_HEADER_BYTES:
            raise _Response(413, {"error": "headers too large"})
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as err:
            raise _Response(400, {"error": "bad request line"}) from err
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        path = urllib.parse.urlsplit(target).path
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _Response(400, {"error": "bad Content-Length header"})
        if length > _MAX_BODY_BYTES:
            raise _Response(413, {"error": "body too large"})
        body = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(
                    raw.decode("utf-8"), parse_constant=_reject_constant
                )
            except (ValueError, UnicodeDecodeError) as err:
                raise _Response(400, {"error": "body is not JSON"}) from err
            if not isinstance(body, dict):
                raise _Response(400, {"error": "body must be an object"})
        return method.upper(), path, headers, body

    # ------------------------------------------------------------------
    # admission control + dispatch
    # ------------------------------------------------------------------
    async def _admit_and_dispatch(self, method, path, headers, body):
        try:
            if path == "/healthz":
                return 200, {
                    "ok": True, "draining": self.draining,
                    "inflight": self.inflight, "pid": os.getpid(),
                }, {}
            if path == "/readyz":
                return self._readyz()
            if path == "/metrics":
                return 200, self.metrics.snapshot(), {}
            if self.draining:
                self.metrics.inc("http.shed")
                raise _Response.backoff(503, "draining", "1")
            if self.inflight > MAX_INFLIGHT:
                self.metrics.inc("http.shed")
                raise _Response.backoff(429, "too many in-flight requests", "1")
            shed = self._shed_reason()
            if shed is not None:
                self.metrics.inc("http.shed")
                raise _Response.backoff(503, f"overloaded: {shed}", "2")
            tenant = headers.get("x-tenant", "default")
            wait = self._bucket(tenant).take()
            if wait > 0.0:
                self.metrics.inc("http.rate_limited")
                raise _Response.backoff(
                    429, f"rate limited (tenant {tenant!r})",
                    f"{math.ceil(wait * 10) / 10:g}",
                )
            deadline_s = None
            if "x-deadline-s" in headers:
                try:
                    deadline_s = float(headers["x-deadline-s"])
                except ValueError as err:
                    raise _Response(
                        400, {"error": "bad X-Deadline-S header"}
                    ) from err
                if not 0 < deadline_s < math.inf:
                    raise _Response(
                        400, {"error": "deadline must be finite and > 0"}
                    )
            budget = (
                deadline_s if deadline_s is not None
                else DEFAULT_TIMEOUT_S
            )
            try:
                return await asyncio.wait_for(
                    self._route(method, path, body, tenant, deadline_s),
                    timeout=budget,
                )
            except asyncio.TimeoutError as err:
                self.metrics.inc("http.deadline_exceeded")
                raise _Response.backoff(
                    504, f"deadline of {budget:g}s exceeded"
                ) from err
        except _Response as resp:
            return resp.status, resp.payload, resp.headers
        except Exception as err:  # noqa: BLE001 - boundary must not leak
            self.metrics.inc("http.errors")
            self._log(f"http: 500 on {method} {path}: {err!r}")
            return 500, {"error": type(err).__name__, "detail": str(err)}, {}

    def _readyz(self):
        if self.draining:
            return 503, {"ready": False, "reason": "draining"}, \
                {"Retry-After": "1"}
        shed = self._shed_reason()
        if shed is not None:
            return 503, {"ready": False, "reason": shed}, {"Retry-After": "2"}
        return 200, {"ready": True}, {}

    def _shed_reason(self) -> str | None:
        depth = self._queue_depth()
        if depth > self.config.shed_queue_depth:
            return f"queue depth {depth} > {self.config.shed_queue_depth}"
        return None

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def _route(self, method, path, body, tenant, deadline_s):
        if path == "/v1/jobs" and method == "POST":
            return await asyncio.to_thread(
                self._submit, body, tenant, deadline_s
            )
        if path == "/v1/jobs" and method == "GET":
            return 200, await asyncio.to_thread(self.client.status), {}
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
            job_id = parts[2]
            tail = parts[3] if len(parts) > 3 else None
            if tail is None and method == "GET":
                return await asyncio.to_thread(self._job_status, job_id)
            if tail == "result" and method == "GET":
                return await asyncio.to_thread(self._job_result, job_id)
            if tail == "cancel" and method == "POST":
                return await asyncio.to_thread(self._cancel, job_id)
        raise _Response(404, {"error": f"no route for {method} {path}"})

    def _submit(self, body, tenant, deadline_s):
        try:
            spec = JobSpec.from_dict(body.get("spec") or {})
        except (TypeError, ValueError) as err:
            raise _Response(400, {"error": f"bad spec: {err}"}) from err
        try:
            priority = int(body.get("priority", 0))
            if not 0 <= priority <= MAX_PRIORITY:
                raise ValueError(f"must be in [0, {MAX_PRIORITY}]")
        except (TypeError, ValueError) as err:
            raise _Response(400, {"error": f"bad priority: {err}"}) from err
        try:
            retry = RetryPolicy.from_dict(body.get("retry") or {})
        except (TypeError, ValueError) as err:
            raise _Response(400, {"error": f"bad retry: {err}"}) from err
        if deadline_s is not None and (
            retry.attempt_deadline_s is None
            or retry.attempt_deadline_s > deadline_s
        ):
            # propagate the caller's budget into the scheduler: each
            # attempt gets at most the request deadline (unless the job
            # already asked for something tighter)
            retry = dataclasses.replace(retry, attempt_deadline_s=deadline_s)
        # admission gate on the *fresh* depth (the cached one that feeds
        # load shedding may be up to half a second stale — fine for a
        # shed heuristic, wrong for an accept/reject boundary)
        depth = self.queue.pending()
        self._depth_cache = (time.monotonic(), depth)
        if depth >= self.config.max_queue_depth:
            self.metrics.inc("http.shed")
            raise _Response.backoff(429, "queue full", "2")
        spec_hash = spec.spec_hash()
        dedup = bool(body.get("dedup", True))
        entry_path = self.dedup_dir / f"{spec_hash}.json"
        with locked_fd(self.dedup_dir / f".{spec_hash}.lock"):
            if dedup:
                entry = read_json(entry_path)
                if entry is not None:
                    record = self.queue.load_record(entry["job_id"])
                    if record is not None and record.state not in (
                        JobState.FAILED, JobState.CANCELLED
                    ):
                        self.metrics.inc("http.deduplicated")
                        self.queue.journal.append(
                            "dedup_hit", record.job_id, spec_hash=spec_hash
                        )
                        return 200, {
                            "job_id": record.job_id,
                            "spec_hash": spec_hash,
                            "state": record.state,
                            "deduplicated": True,
                        }, {}
            record = self.client.submit(
                spec, priority=priority, retry=retry, tenant=tenant
            )
            write_json_atomic(
                entry_path, {"job_id": record.job_id, "spec_hash": spec_hash}
            )
        self.metrics.inc("http.submitted")
        return 201, {
            "job_id": record.job_id,
            "spec_hash": spec_hash,
            "state": record.state,
            "priority": record.priority,
            "deduplicated": False,
        }, {}

    def _record(self, job_id):
        """The job's record, or a 404."""
        record = self.client.queue.load_record(job_id)
        if record is None:
            raise _Response(404, {"error": f"unknown job {job_id}"})
        return record

    def _job_status(self, job_id):
        return 200, self.client.job_row(self._record(job_id)), {}

    def _job_result(self, job_id):
        record = self._record(job_id)
        done = record.state in JobState.TERMINAL
        return (200 if done else 202), {
            "job_id": job_id, "state": record.state,
            "result": self.client.result(record) if done else None,
        }, {}

    def _cancel(self, job_id):
        record = self._record(job_id)
        cancelled = self.client.cancel(job_id)
        fresh = self.client.queue.load_record(job_id) or record
        return 200, {
            "job_id": job_id,
            "cancelled": bool(cancelled),
            "state": fresh.state,
        }, {}


# ----------------------------------------------------------------------
# process entry points
# ----------------------------------------------------------------------
def run_server(
    root: str | Path,
    config: ServiceConfig | None = None,
    *,
    log=None,
) -> int:
    """Blocking server entry (the ``batch serve`` CLI target).

    Serves through a :class:`BackgroundServer` until SIGTERM or SIGINT,
    then drains it with :meth:`BackgroundServer.stop`; returns 0 after
    the drain.
    """
    NetFaultInjector.install_from_env()
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    server = BackgroundServer(root, config, log=log).start()
    stop.wait()
    server.stop()
    return 0


class BackgroundServer:
    """Run an :class:`HttpJobService` in a daemon thread (``batch
    serve``, the tests and the harness).

    .. code-block:: python

        server = BackgroundServer(root).start()
        ...  # talk to http://{server.host}:{server.port}
        server.stop()
    """

    def __init__(
        self, root: str | Path, config: ServiceConfig | None = None,
        *, log=None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self._log = log
        self.service: HttpJobService | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )

    def _run(self) -> None:
        async def _main():
            self.service = HttpJobService(
                self.root, self.config, log=self._log
            )
            await self.service.start()
            self.host, self.port = self.service.host, self.service.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service._drained.wait()

        try:
            asyncio.run(_main())
        finally:
            self._ready.set()  # unblock start() even on bind failure
            self._stopped.set()

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout) or self.port is None:
            raise RuntimeError(f"HTTP server failed to start on {self.root}")
        return self

    def stop(self, timeout: float = 15.0) -> None:
        """Trigger the graceful drain and join the server thread."""
        if self._loop is not None and self.service is not None \
                and not self._stopped.is_set():
            try:
                asyncio.run_coroutine_threadsafe(
                    self.service.drain(), self._loop
                ).result(timeout)
            except (RuntimeError, TimeoutError,
                    asyncio.CancelledError):  # pragma: no cover
                pass
        self._thread.join(timeout)


def read_server_info(root: str | Path) -> dict | None:
    """The live server's ``{host, port, pid}``, or ``None``."""
    return read_json(Path(root) / SERVER_INFO_FILE)


def wait_for_server(root: str | Path, timeout: float = 30.0) -> dict:
    """Poll for the info file a starting server writes; raises on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        info = read_server_info(root)
        if info is not None:
            return info
        time.sleep(0.05)
    raise TimeoutError(f"no HTTP server came up under {root}")
