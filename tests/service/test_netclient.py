"""Retrying client: seeded backoff, Retry-After, error taxonomy."""

import socket

import numpy as np
import pytest

from repro.service.http import BackgroundServer, ServiceConfig
from repro.service.netclient import (
    ClientRetry,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.spec import RetryPolicy
from repro.util.rng import derive_seed


class TestClientRetry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientRetry(attempts=0)
        with pytest.raises(ValueError):
            ClientRetry(backoff_factor=0.5)

    def test_delays_are_seeded_and_bounded(self):
        retry = ClientRetry(backoff_s=0.1, backoff_factor=2.0,
                            backoff_max_s=0.5, jitter=0.5, seed=7)
        rng_a = np.random.default_rng(derive_seed(7, "netclient", "h", 1))
        rng_b = np.random.default_rng(derive_seed(7, "netclient", "h", 1))
        delays_a = [retry.delay(n, rng_a) for n in range(1, 8)]
        delays_b = [retry.delay(n, rng_b) for n in range(1, 8)]
        assert delays_a == delays_b  # same seed, same schedule
        # exponential up to the cap, jitter never exceeding 1+jitter
        assert all(d <= 0.5 * 1.5 for d in delays_a)
        assert delays_a[0] < delays_a[-1]

    def test_one_backoff_formula_serves_both_policies(self):
        """``RetryPolicy`` and ``ClientRetry`` share one formula and one
        validation; the delays are the ones each computed on its own
        (recorded before the merge), bit for bit."""
        pinned = {
            0: (
                ["0x1.9b3f2260f15bap-4", "0x1.a30337be92f54p-3",
                 "0x1.f1368a9904527p-2", "0x1.d9a51106ecc4dp-1",
                 "0x1.b0ef96153f387p+0", "0x1.dddafce4d0d70p+1",
                 "0x1.a229dfa53a758p+2", "0x1.c6917d5bd6d6cp+3"],
                ["0x1.9b3a158fbf1eap-5", "0x1.0055b47d1b369p-3",
                 "0x1.b886d95a8cb0cp-3", "0x1.2ed438b796772p-1",
                 "0x1.29d21aeba309fp+0", "0x1.0764ee6c3f13bp+1",
                 "0x1.7b652fd37029ap+1", "0x1.3540cd5a05e4ep+1"],
            ),
            7: (
                ["0x1.e91e4d6929d32p-4", "0x1.bc2b353971c20p-3",
                 "0x1.d9e56a0fbd41dp-2", "0x1.a0a3355eb7e55p-1",
                 "0x1.b9992e0310ca0p+0", "0x1.c1f84ff4ce48dp+1",
                 "0x1.fbacde36219a4p+2", "0x1.e72e958e82644p+3"],
                ["0x1.bf63070e4c6bap-5", "0x1.16b7808f68d35p-3",
                 "0x1.f56f3861a129dp-3", "0x1.17487e664e915p-1",
                 "0x1.2730fc30f20b4p+0", "0x1.a5cdfcc3fe36dp+0",
                 "0x1.42ebd55ab3408p+1", "0x1.2aac6426c9633p+1"],
            ),
        }
        for seed, (job_side, client_side) in pinned.items():
            policy = RetryPolicy(max_attempts=9, backoff_s=0.1, seed=seed)
            assert [
                policy.delay("j000001-abc", n).hex() for n in range(1, 9)
            ] == job_side
            rng = np.random.default_rng(
                derive_seed(seed, "netclient", "127.0.0.1", 8080)
            )
            retry = ClientRetry(seed=seed)
            assert [
                retry.delay(n, rng).hex() for n in range(1, 9)
            ] == client_side
        for cls in (RetryPolicy, ClientRetry):
            with pytest.raises(ValueError, match="jitter"):
                cls(jitter=-0.1)


class TestErrorTaxonomy:
    def test_connection_refused_exhausts_into_unavailable(self):
        client = ServiceClient(
            "127.0.0.1", 1,  # nothing listens on port 1
            retry=ClientRetry(attempts=3, backoff_s=0.001),
        )
        with pytest.raises(ServiceUnavailable) as err:
            client.healthz()
        assert client.stats["requests"] == 3
        assert client.stats["giveups"] == 1
        assert isinstance(err.value.last, OSError)

    def test_a_server_that_never_answers_times_out_and_retries(self):
        # the kernel completes the handshake on a listening socket; no
        # byte of a response ever comes back, so each attempt's read
        # runs into the socket timeout
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = ServiceClient(
                "127.0.0.1", listener.getsockname()[1], timeout=0.2,
                retry=ClientRetry(attempts=3),
            )
            with pytest.raises(ServiceUnavailable) as err:
                client.healthz()
        assert isinstance(err.value.last, socket.timeout)
        assert client.stats == {"requests": 3, "retries": 2, "giveups": 1}

    def test_4xx_is_not_retried(self, tmp_path):
        server = BackgroundServer(tmp_path / "b").start()
        client = ServiceClient(server.host, server.port)
        try:
            before = client.stats["requests"]
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/no/such/route")
            assert err.value.status == 404
            assert client.stats["requests"] == before + 1
        finally:
            server.stop()

    def test_retry_after_hint_is_honoured(self, tmp_path):
        # an empty token bucket returns 429 + Retry-After; the client
        # must wait at least that long before its next attempt succeeds
        config = ServiceConfig(rate_capacity=1.0, rate_refill_per_s=5.0)
        server = BackgroundServer(tmp_path / "b", config).start()
        client = ServiceClient(
            server.host, server.port, tenant="burst",
            retry=ClientRetry(attempts=6, backoff_s=0.001,
                              backoff_max_s=0.002),
        )
        try:
            client.jobs()  # drains the single token
            client.jobs()  # 429 first, then retried past the refill
            assert client.stats["retries"] >= 1
            assert client.stats["giveups"] == 0
        finally:
            server.stop()

    def test_from_root_times_out_without_server(self, tmp_path):
        with pytest.raises(TimeoutError):
            ServiceClient.from_root(tmp_path, wait_s=0.2)
