"""Retrying HTTP client for the batch service front-end.

:class:`ServiceClient` is the caller-side half of the robustness
contract :mod:`repro.service.http` publishes: every verb maps to one
HTTP request, and every transport failure — a connection reset (the
network chaos layer's fault), a truncated body, a read that times out —
is absorbed by a bounded seeded-backoff retry loop. The server
makes retrying *safe* — submits are idempotent by spec hash, cancels
and reads are naturally so — which is why the client may retry every
verb without a per-verb whitelist.

Backpressure responses (``429``/``503``/``504``) are retried too,
honouring the server's ``Retry-After`` hint when it is larger than the
client's own backoff. Non-retriable protocol errors (``400``, ``404``)
raise :class:`ServiceError` immediately; an exhausted retry budget
raises :class:`ServiceUnavailable` carrying the last failure.

Stdlib transport (``http.client``) with one connection per request
(``Connection: close``), matching the server. Retry delays are seeded
via :func:`repro.util.rng.derive_seed`, so a campaign's retry
schedule is reproducible.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.http import wait_for_server
from repro.service.spec import JobSpec, JobState, backoff_delay, check_backoff
from repro.util.rng import derive_seed


class ServiceError(Exception):
    """A non-retriable protocol error (4xx that is not backpressure)."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceUnavailable(Exception):
    """The retry budget ran out; ``last`` carries the final failure."""

    def __init__(self, detail: str, last: Exception | None = None) -> None:
        super().__init__(detail)
        self.last = last


@dataclass(frozen=True)
class ClientRetry:
    """Client-side retry budget and seeded backoff schedule."""

    attempts: int = 8
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        check_backoff(self)

    def delay(self, attempt: int, rng) -> float:
        """Backoff before retry ``attempt`` (1-based), with seeded jitter."""
        return backoff_delay(self, attempt, rng.random())


#: Status codes that mean "try again later", per the server contract.
RETRIABLE_STATUSES = (429, 503, 504)


class ServiceClient:
    """Talk to one :class:`~repro.service.http.HttpJobService`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: float = 5.0,
        retry: ClientRetry | None = None,
        log=None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout = timeout
        self.retry = retry or ClientRetry()
        self._log = log or (lambda msg: None)
        self._rng = np.random.default_rng(
            derive_seed(self.retry.seed, "netclient", host, port)
        )
        #: Transport tallies for campaign summaries.
        self.stats = {"requests": 0, "retries": 0, "giveups": 0}

    @classmethod
    def from_root(
        cls, root: str | Path, *, wait_s: float = 30.0, **kwargs
    ) -> "ServiceClient":
        """Connect to the server owning ``root`` (polls for its info
        file, so a just-spawned server process is fine)."""
        info = wait_for_server(root, timeout=wait_s)
        return cls(info["host"], info["port"], **kwargs)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _once(self, method, path, body, headers):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            raw = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=raw, headers=headers)
            resp = conn.getresponse()
            blob = resp.read()  # IncompleteRead on truncation
            try:
                payload = json.loads(blob.decode("utf-8")) if blob else {}
            except (ValueError, UnicodeDecodeError) as err:
                raise http.client.HTTPException(
                    f"unparseable body ({len(blob)} bytes)"
                ) from err
            retry_after = resp.getheader("Retry-After")
            return resp.status, payload, retry_after
        finally:
            conn.close()

    def request(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        deadline_s: float | None = None,
    ) -> tuple[int, dict]:
        """One verb with the full retry loop; returns (status, payload)."""
        headers = {"X-Tenant": self.tenant, "Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if deadline_s is not None:
            headers["X-Deadline-S"] = f"{deadline_s:g}"
        last: Exception | None = None
        for attempt in range(1, self.retry.attempts + 1):
            self.stats["requests"] += 1
            try:
                status, payload, retry_after = self._once(
                    method, path, body, headers
                )
            except (OSError, http.client.HTTPException, socket.timeout) as err:
                last = err
                self._backoff(attempt, None, f"{type(err).__name__}")
                continue
            if status in RETRIABLE_STATUSES:
                last = ServiceError(status, payload)
                self._backoff(attempt, retry_after, f"HTTP {status}")
                continue
            if status >= 400:
                raise ServiceError(status, payload)
            return status, payload
        self.stats["giveups"] += 1
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.retry.attempts} attempts "
            f"(last: {last!r})",
            last,
        )

    def _backoff(self, attempt, retry_after, why) -> None:
        if attempt >= self.retry.attempts:
            return
        self.stats["retries"] += 1
        delay = self.retry.delay(attempt, self._rng)
        if retry_after is not None:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        self._log(
            f"netclient: retry {attempt} after {why} (sleeping {delay:.3f}s)"
        )
        time.sleep(delay)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec | dict,
        *,
        priority: int = 0,
        retry=None,
        deadline_s: float | None = None,
        dedup: bool = True,
    ) -> dict:
        """Submit one job; idempotent by spec hash on the server side.

        Returns ``{"job_id", "spec_hash", "state", "deduplicated"}``. A
        retried submit that raced its own lost response simply comes
        back ``deduplicated: true`` with the same job id.
        """
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        body: dict = {"spec": spec, "priority": priority, "dedup": dedup}
        if retry is not None:
            body["retry"] = (
                retry if isinstance(retry, dict)
                else dataclasses.asdict(retry)
            )
        _status, payload = self.request(
            "POST", "/v1/jobs", body=body, deadline_s=deadline_s
        )
        return payload

    def jobs(self) -> dict:
        """Batch overview (counts, queue depths, cache, per-job rows)."""
        return self.request("GET", "/v1/jobs")[1]

    def job(self, job_id: str) -> dict:
        """One job's status row (lease/epoch detail included)."""
        return self.request("GET", f"/v1/jobs/{job_id}")[1]

    def result(self, job_id: str) -> dict:
        """Result envelope; ``result`` is ``None`` while non-terminal."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")[1]

    def cancel(self, job_id: str) -> dict:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel", body={})[1]

    def wait(
        self, job_id: str, *, timeout_s: float = 60.0, poll_s: float = 0.2
    ) -> dict:
        """Block until the job is terminal; returns its final row."""
        deadline = time.monotonic() + timeout_s
        while True:
            row = self.job(job_id)
            if row.get("state") in JobState.TERMINAL:
                return row
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {row.get('state')!r} "
                    f"after {timeout_s:g}s"
                )
            time.sleep(poll_s)

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")[1]

    def readyz(self) -> bool:
        """True when the server is accepting work (not draining/shedding).

        Probed without the retry loop — a 503 here *is* the answer, not
        a transport failure to paper over.
        """
        try:
            status, _, _ = self._once(
                "GET", "/readyz", None, {"Connection": "close"}
            )
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")[1]
