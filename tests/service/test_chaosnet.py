"""Network fault injector: plan validation, determinism, server faults."""

import pytest

from repro.service.chaos import (
    NET_FAULT_REGISTRY,
    NET_PLAN_ENV,
    NetFaultInjector,
    NetFaultPlan,
)
from repro.service.http import BackgroundServer
from repro.service.netclient import ClientRetry, ServiceClient
from repro.service.spec import JobSpec


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    NetFaultInjector.install(None)


class TestPlan:
    def test_rejects_unknown_fault_and_bad_rate(self):
        with pytest.raises(ValueError, match="unknown net fault"):
            NetFaultPlan(faults=("wormhole",))
        with pytest.raises(ValueError, match="rate"):
            NetFaultPlan(rate=1.5)

    def test_roundtrips_through_json(self, tmp_path):
        plan = NetFaultPlan(seed=9, rate=0.3, faults=("conn_reset",),
                            max_faults=5)
        path = plan.save(tmp_path / "plan.json")
        assert NetFaultPlan.load(path) == plan
        with pytest.raises(ValueError, match="unknown NetFaultPlan"):
            NetFaultPlan.from_dict({"seed": 1, "bogus": True})

    def test_env_arming(self, tmp_path, monkeypatch):
        plan = NetFaultPlan(seed=4, rate=0.2)
        path = plan.save(tmp_path / "net.json")
        monkeypatch.setenv(NET_PLAN_ENV, str(path))
        injector = NetFaultInjector.install_from_env()
        assert injector is not None and injector.plan == plan
        monkeypatch.delenv(NET_PLAN_ENV)
        assert NetFaultInjector.install_from_env() is None


class TestInjector:
    def test_decisions_are_seeded(self):
        a = NetFaultInjector(NetFaultPlan(seed=1, rate=0.5))
        b = NetFaultInjector(NetFaultPlan(seed=1, rate=0.5))
        paths = [f"/v1/jobs/{i}" for i in range(50)]
        assert [a.decide(p) for p in paths] == [b.decide(p) for p in paths]
        assert a.counts == b.counts and a.total > 0

    def test_budget_caps_total_injections(self):
        injector = NetFaultInjector(NetFaultPlan(seed=0, rate=1.0,
                                                 max_faults=3))
        for i in range(20):
            injector.decide(f"/v1/jobs/{i}")
        assert injector.total == 3

    def test_health_routes_are_protected(self):
        injector = NetFaultInjector(NetFaultPlan(seed=0, rate=1.0))
        assert injector.decide("/healthz") is None
        assert injector.decide("/readyz") is None
        assert injector.decide("/v1/jobs") is not None

    def test_registry_covers_every_request_phase(self):
        stages = {spec.stage for spec in NET_FAULT_REGISTRY.values()}
        assert stages == {"request", "response"}


class TestFaultsThroughServer:
    """Each fault class, injected by a real server, absorbed by the
    retrying client — the contract the API soak depends on."""

    @pytest.mark.parametrize("fault", sorted(NET_FAULT_REGISTRY))
    def test_client_retries_through(self, tmp_path, fault):
        NetFaultInjector.install(NetFaultPlan(
            seed=11, rate=0.5, faults=(fault,), max_faults=4,
            latency_s=0.01,
        ))
        server = BackgroundServer(tmp_path / "b").start()
        client = ServiceClient(
            server.host, server.port, timeout=2.0,
            retry=ClientRetry(attempts=10, backoff_s=0.02, seed=5),
        )
        try:
            ids = {
                client.submit(
                    JobSpec(model="wall", engine="serial", steps=2,
                            tag=f"{fault}-{i}")
                )["job_id"]
                for i in range(5)
            }
            # no duplicate executions despite lost responses: five
            # specs, five distinct jobs, zero give-ups
            assert len(ids) == 5
            assert client.stats["giveups"] == 0
            # health stayed probe-able throughout the chaos
            assert client.healthz()["ok"] is True
        finally:
            server.stop()
            injector = NetFaultInjector.armed
            assert injector is not None and injector.total >= 1

    def test_injections_land_in_server_metrics(self, tmp_path):
        NetFaultInjector.install(NetFaultPlan(seed=3, rate=1.0,
                                      faults=("net_latency",),
                                      latency_s=0.001))
        server = BackgroundServer(tmp_path / "b").start()
        client = ServiceClient(server.host, server.port)
        try:
            client.submit(JobSpec(model="wall", engine="serial", steps=2))
            snap = client.metrics()
            assert snap["counters"]["http.net_faults"] >= 1
            assert snap["counters"]["http.net_faults.net_latency"] >= 1
        finally:
            server.stop()
