"""HTTP front-end: idempotent submits, admission control, drain."""

import dataclasses
import json
import os
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.service.client import BatchClient
from repro.service.http import (
    BackgroundServer,
    ServiceConfig,
    TokenBucket,
    read_server_info,
)
from repro.service.journal import Journal
from repro.service.netclient import ClientRetry, ServiceClient, ServiceError
from repro.service.spec import JobSpec, JobState


def spec(tag: str, **kw) -> JobSpec:
    kw.setdefault("model", "wall")
    kw.setdefault("engine", "serial")
    kw.setdefault("steps", 2)
    return JobSpec(tag=tag, **kw)


@pytest.fixture
def served(tmp_path):
    server = BackgroundServer(tmp_path / "batch").start()
    client = ServiceClient(server.host, server.port, tenant="test")
    yield server, client, tmp_path / "batch"
    server.stop()


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=10.0)
        now = time.monotonic()
        assert bucket.take(now) == 0.0
        assert bucket.take(now) == 0.0
        wait = bucket.take(now)
        assert wait > 0.0
        assert bucket.take(now + wait + 0.01) == 0.0

    def test_zero_refill_never_recovers(self):
        bucket = TokenBucket(capacity=1.0, refill_per_s=0.0)
        now = time.monotonic()
        assert bucket.take(now) == 0.0
        assert bucket.take(now) > 0.0


class TestServiceConfig:
    """A NaN token bucket admits every request and a depth below 1
    refuses every submit: both are refused when the config is built."""

    @pytest.mark.parametrize("field, value", [
        ("rate_capacity", float("nan")),
        ("rate_refill_per_s", float("nan")),
        ("rate_capacity", float("inf")),
        ("rate_capacity", 0.5),
        ("rate_refill_per_s", -1.0),
        ("max_queue_depth", -1),
        ("max_queue_depth", 0),
        ("shed_queue_depth", 0),
    ])
    def test_rejects_a_config_that_disables_admission(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_edges_of_the_valid_range_pass(self):
        ServiceConfig(
            max_queue_depth=1, shed_queue_depth=1, rate_capacity=1.0,
            rate_refill_per_s=0.0,
        )

    def test_serve_refuses_a_nan_refill_as_a_usage_error(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "serve",
             "--dir", str(tmp_path / "batch"), "--rate-refill", "nan"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 2
        assert "rate_refill_per_s must be finite" in out.stderr
        assert not (tmp_path / "batch").exists()


class TestLifecycle:
    def test_healthz_and_info_file(self, served):
        server, client, root = served
        assert client.healthz()["ok"] is True
        assert client.readyz() is True
        info = read_server_info(root)
        assert info["port"] == server.port

    def test_submit_status_result_roundtrip(self, served):
        _server, client, root = served
        resp = client.submit(spec("roundtrip"))
        assert resp["deduplicated"] is False
        job_id = resp["job_id"]
        row = client.job(job_id)
        assert row["state"] == JobState.QUEUED
        assert row["tenant"] == "test"
        envelope = client.result(job_id)
        assert envelope["result"] is None  # 202 while queued
        BatchClient(root).run(n_workers=1)
        row = client.wait(job_id, timeout_s=60.0)
        assert row["state"] == JobState.SUCCEEDED
        envelope = client.result(job_id)
        assert envelope["result"]["status"] == "succeeded"

    def test_submit_is_idempotent_by_spec_hash(self, served):
        _server, client, _root = served
        first = client.submit(spec("dup"))
        second = client.submit(spec("dup"))
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        # dedup=False forces a fresh job for the same spec
        third = client.submit(spec("dup"), dedup=False)
        assert third["job_id"] != first["job_id"]

    def test_failed_job_releases_its_dedup_entry(self, served):
        _server, client, root = served
        poison = spec("poison", kill_at_step=1, checkpoint_every=1,
                      kill_once=False)
        first = client.submit(poison, retry={"max_attempts": 1})
        BatchClient(root).run(n_workers=1)
        assert client.wait(first["job_id"], timeout_s=60.0)["state"] == \
            JobState.FAILED
        # a failed job must not absorb an explicit re-request: the
        # dedup entry is released and a fresh job is forked
        again = client.submit(poison, retry={"max_attempts": 1})
        assert again["deduplicated"] is False
        assert again["job_id"] != first["job_id"]

    def test_cancel_via_api(self, served):
        _server, client, _root = served
        job_id = client.submit(spec("doomed"))["job_id"]
        resp = client.cancel(job_id)
        assert resp["cancelled"] is True
        assert resp["state"] == JobState.CANCELLED

    def test_unknown_job_404s(self, served):
        _server, client, _root = served
        with pytest.raises(ServiceError) as err:
            client.job("j999999-deadbeef")
        assert err.value.status == 404

    def test_bad_spec_400s_without_retry_burn(self, served):
        _server, client, _root = served
        before = client.stats["requests"]
        with pytest.raises(ServiceError) as err:
            client.submit({"model": "nope"})
        assert err.value.status == 400
        assert client.stats["requests"] == before + 1  # not retried

    @pytest.mark.parametrize("body", [
        {"preconditioner": "bogus", "steps": 2},
        {"max_rollbacks": -1, "steps": 2},
        {"size": 0.0, "steps": 2},
        # a field retired since: unknown now
        {"fault_names": ["no_such_fault"], "steps": 2},
        # a contract level retired since: a part of "full" now
        {"contracts": "cheap", "steps": 2},
    ])
    def test_spec_the_run_would_reject_400s_and_leaves_no_trace(
        self, served, body
    ):
        """These specs used to be accepted (201), then burned two worker
        attempts failing the same way and ended quarantined."""
        _server, client, root = served
        with pytest.raises(ServiceError) as err:
            client.submit(body)
        assert err.value.status == 400
        assert err.value.payload["error"].startswith("bad spec: ")
        queue = BatchClient(root).queue
        assert not list(queue.jobs_dir.glob("*.json"))
        assert not list(queue.queued_dir.iterdir())
        events, _ = queue.journal.events()
        assert [e for e in events if e["job_id"] != "-"] == []

    @pytest.mark.parametrize("priority", ["abc", 5000, -1])
    def test_bad_priority_400s(self, served, priority):
        _server, client, _root = served
        with pytest.raises(ServiceError) as err:
            client.submit(spec("prio"), priority=priority)
        assert err.value.status == 400

    def test_no_request_reads_the_journal(self, served, monkeypatch):
        """The journal is the auditor's evidence and grows with the
        campaign: serving a request never parses it."""
        server, _client, _root = served

        def refuse(_journal):
            raise AssertionError("a request parsed the job journal")

        monkeypatch.setattr(Journal, "events", refuse)
        client = ServiceClient(
            server.host, server.port, tenant="test",
            retry=ClientRetry(attempts=1),
        )
        job_id = client.submit(spec("unread"))["job_id"]
        assert client.job(job_id)["state"] == JobState.QUEUED
        assert client.result(job_id)["result"] is None
        assert client.readyz() is True

    def test_metrics_endpoint_counts_requests(self, served):
        _server, client, _root = served
        client.submit(spec("metered"))
        snap = client.metrics()
        assert snap["counters"]["http.requests"] >= 1
        assert snap["counters"]["http.submitted"] == 1


def raw_exchange(server, request: bytes) -> tuple[int, dict]:
    """Send raw bytes; return (status, JSON body) of whatever came back."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(request)
        reply = b""
        while chunk := s.recv(65536):
            reply += chunk
    assert reply, "connection closed without a response"
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestMalformedRequests:
    """A request too malformed to route still gets its status + JSON
    error — never a bare connection close, which a retrying client
    would read as a transport fault."""

    @pytest.mark.parametrize("request_bytes, status, error", [
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
         400, "body is not JSON"),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
         413, "body too large"),
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 20_000 + b"\r\n\r\n",
         413, "headers too large"),
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000,  # no terminator
         413, "headers too large"),
        (b"GARBAGE\r\n\r\n", 400, "bad request line"),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: xx\r\n\r\n",
         400, "bad Content-Length header"),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
         400, "bad Content-Length header"),
    ], ids=["not-json", "body-too-large", "headers-too-large",
            "headers-unterminated", "bad-request-line",
            "content-length-not-int", "content-length-negative"])
    def test_error_response_is_sent(self, served, request_bytes, status, error):
        server, client, _root = served
        before = client.metrics()["counters"]["http.responses.4xx"]
        assert raw_exchange(server, request_bytes) == (status, {"error": error})
        after = client.metrics()["counters"]["http.responses.4xx"]
        assert after == before + 1

    def test_client_sees_400_after_exactly_one_request(self, served):
        _server, client, _root = served
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/jobs", body=["not", "an", "object"])
        assert err.value.status == 400
        assert client.stats == {"requests": 1, "retries": 0, "giveups": 0}


class TestAdmissionControl:
    def test_tenant_rate_limit_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(rate_capacity=2.0, rate_refill_per_s=0.1)
        server = BackgroundServer(tmp_path / "b", config).start()
        try:
            url = f"http://{server.host}:{server.port}/v1/jobs"
            seen = None
            for _ in range(4):
                req = urllib.request.Request(
                    url, headers={"X-Tenant": "greedy"}
                )
                try:
                    urllib.request.urlopen(req).read()
                except urllib.error.HTTPError as err:
                    seen = err
                    break
            assert seen is not None and seen.code == 429
            assert float(seen.headers["Retry-After"]) > 0.0
            # another tenant's bucket is untouched
            req = urllib.request.Request(url, headers={"X-Tenant": "calm"})
            assert urllib.request.urlopen(req).status == 200
        finally:
            server.stop()

    def test_queue_depth_rejects_submit(self, tmp_path):
        config = ServiceConfig(max_queue_depth=2, rate_capacity=100.0)
        server = BackgroundServer(tmp_path / "b", config).start()
        client = ServiceClient(
            server.host, server.port,
            retry=dataclasses.replace(client_retry_fast(), attempts=2),
        )
        try:
            client.submit(spec("one"))
            client.submit(spec("two"))
            with pytest.raises(Exception) as err:
                client.submit(spec("three"))
            # budget-exhausted retriable 429, surfaced as unavailability
            assert "429" in str(err.value.last)
        finally:
            server.stop()

    def test_deadline_header_propagates_into_retry_policy(self, served):
        _server, client, root = served
        job_id = client.submit(spec("deadline"), deadline_s=7.5)["job_id"]
        record = BatchClient(root).queue.load_record(job_id)
        assert record.retry.attempt_deadline_s == 7.5
        # a tighter job-level deadline wins over the request's
        job_id = client.submit(
            spec("tighter"), deadline_s=7.5,
            retry={"max_attempts": 2, "attempt_deadline_s": 3.0},
        )["job_id"]
        record = BatchClient(root).queue.load_record(job_id)
        assert record.retry.attempt_deadline_s == 3.0


class TestNonFiniteInputs:
    """A NaN or infinity from outside fails every ``<= 0`` check it
    meets, so each input checks finiteness: a 400, sent once, never a
    retriable 504 or a stored deadline that never fires."""

    @staticmethod
    def once(server) -> ServiceClient:
        return ServiceClient(
            server.host, server.port, tenant="test",
            retry=ClientRetry(attempts=1),
        )

    @pytest.mark.parametrize("deadline_s", [float("nan"), float("inf")])
    def test_deadline_header(self, served, deadline_s):
        server, _client, _root = served
        client = self.once(server)
        with pytest.raises(ServiceError) as err:
            client.submit(spec("deadline"), deadline_s=deadline_s)
        assert err.value.status == 400
        assert "deadline must be finite" in err.value.payload["error"]

    @pytest.mark.parametrize("spec_kw, retry", [
        ({"steps": float("nan")}, None),
        ({"seed": float("nan")}, None),
        ({"size": float("inf")}, None),
        ({}, {"max_attempts": 2, "attempt_deadline_s": float("nan")}),
        ({}, {"max_attempts": 2, "backoff_max_s": float("inf")}),
    ])
    def test_non_finite_body_value(self, served, spec_kw, retry):
        """``json.dumps`` writes ``NaN``/``Infinity``, which JSON has not:
        the body is refused before any field check (a NaN ``steps`` was a
        500 from the spec hash, a NaN deadline was stored)."""
        server, _client, root = served
        body = {**spec("body-nan").to_dict(), **spec_kw}
        with pytest.raises(ServiceError) as err:
            self.once(server).submit(body, retry=retry)
        assert err.value.status == 400
        assert err.value.payload["error"] == "body is not JSON"
        assert not list(BatchClient(root).queue.jobs_dir.glob("*.json"))


def _call(url: str, body: dict | None = None):
    """One raw request: ``(status, payload, headers)``, errors included."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), err.headers


class TestLoadShedding:
    @pytest.mark.parametrize("rule", ["queue_depth"])
    def test_shed_server_refuses_work_but_stays_healthy(self, tmp_path, rule):
        """Past the shedding threshold ``/readyz`` and submits answer
        503 with the reason, and ``/healthz`` still answers 200."""
        root = tmp_path / "b"
        queue = BatchClient(root).queue
        config = ServiceConfig(shed_queue_depth=1)
        queue.submit(spec("one"))
        queue.submit(spec("two"))
        reason = "queue depth 2 > 1"
        server = BackgroundServer(root, config).start()
        base = f"http://{server.host}:{server.port}"
        try:
            status, payload, _ = _call(f"{base}/readyz")
            assert (status, payload["reason"]) == (503, reason)
            status, payload, headers = _call(
                f"{base}/v1/jobs", {"spec": spec("three").to_dict()}
            )
            assert (status, payload["error"]) == (503, f"overloaded: {reason}")
            assert headers["Retry-After"] == "2"
            status, payload, _ = _call(f"{base}/healthz")
            assert status == 200 and payload["ok"] is True
        finally:
            server.stop()
        assert len(queue.records()) == 2


class TestDrain:
    def test_sigterm_style_drain_flips_readyz(self, tmp_path):
        root = tmp_path / "batch"
        server = BackgroundServer(root).start()
        client = ServiceClient(server.host, server.port)
        job_id = client.submit(spec("survivor"))["job_id"]
        assert client.readyz() is True
        server.stop()  # graceful drain, not a kill
        assert client.readyz() is False
        assert read_server_info(root) is None  # info file removed
        # the queued job survived the server: a pool can still run it
        bc = BatchClient(root)
        assert bc.queue.load_record(job_id).state == JobState.QUEUED
        bc.run(n_workers=1)
        assert bc.queue.load_record(job_id).state == JobState.SUCCEEDED
        # drain journalled + metrics persisted for the operator report
        events, _ = bc.queue.journal.events()
        names = [e["event"] for e in events]
        assert "server_started" in names and "server_drained" in names
        snaps = list((root / "metrics").glob("http-*.json"))
        assert snaps, "drain must persist the metrics snapshot"
        snap = json.loads(snaps[0].read_text())
        assert snap["counters"]["http.drains"] == 1


def client_retry_fast():
    from repro.service.netclient import ClientRetry

    return ClientRetry(attempts=4, backoff_s=0.01, backoff_max_s=0.05)
