"""HTTP service-layer benchmark — request latency under chaos + drain.

Three measurements over the asyncio HTTP front-end (repro.service.http):

* ``clean`` — submit/status round-trip latency (p50/p99 ms) and
  sustained requests/s against a fault-free in-process server. This is
  the admission-controlled baseline: every request still pays the
  token bucket, the depth gate, and the journal append on submit.
* ``faulted`` — the same seeded request mix with the network chaos
  plan armed (both fault classes). Reports the client-observed
  latency tax, the retry count the transport absorbed, and that zero
  requests were given up on.
* ``drain`` — graceful-shutdown latency: the wall-clock from the
  drain signal to the listener closed, in-flight requests settled,
  and the metrics snapshot persisted (median of several trials).

Run with::

    PYTHONPATH=src python -m benchmarks.bench_service_http [--json PATH]
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from benchmarks.common import bench_arg_parser, write_bench_json

#: Submit/status pairs per latency campaign (small: CI runs this).
REQUESTS = 60
SEED = 0
#: Graceful-drain trials (median is reported).
DRAIN_TRIALS = 5
#: Injection rate for the faulted campaign.
NET_FAULT_RATE = 0.15


def _percentiles(samples_s: list[float]) -> dict:
    ordered = sorted(samples_s)
    idx = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]  # noqa: E731
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "p99_ms": 1e3 * idx(0.99),
        "max_ms": 1e3 * ordered[-1],
    }


def run_request_campaign(root: Path, *, faulted: bool) -> dict:
    """Latency + throughput of REQUESTS submit/status pairs."""
    from repro.service.chaos import NetFaultInjector, NetFaultPlan
    from repro.service.http import BackgroundServer, ServiceConfig
    from repro.service.netclient import ClientRetry, ServiceClient
    from repro.service.spec import JobSpec

    if faulted:
        NetFaultInjector.install(NetFaultPlan(
            seed=SEED, rate=NET_FAULT_RATE, max_faults=REQUESTS,
            latency_s=0.01,
        ))
    else:
        NetFaultInjector.install(None)
    config = ServiceConfig(
        rate_capacity=4.0 * REQUESTS, rate_refill_per_s=4.0 * REQUESTS,
        max_queue_depth=4 * REQUESTS, shed_queue_depth=8 * REQUESTS,
    )
    server = BackgroundServer(root, config).start()
    client = ServiceClient(
        server.host, server.port, tenant="bench",
        retry=ClientRetry(attempts=10, backoff_s=0.02, seed=SEED),
    )
    latencies: list[float] = []
    try:
        start = time.perf_counter()
        for i in range(REQUESTS):
            t0 = time.perf_counter()
            resp = client.submit(
                JobSpec(model="wall", engine="serial", steps=2,
                        tag=f"bench-{i}")
            )
            client.job(resp["job_id"])
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    finally:
        server.stop()
        NetFaultInjector.install(None)
    n_http = 2 * REQUESTS + client.stats["retries"]
    return {
        "pairs": REQUESTS,
        "wall_s": wall,
        "requests_per_s": n_http / wall if wall else None,
        "latency": _percentiles(latencies),
        "client_retries": client.stats["retries"],
        "client_giveups": client.stats["giveups"],
    }


def bench_drain(scratch: Path) -> dict:
    """Median graceful-drain latency with work queued behind the server."""
    from repro.service.http import BackgroundServer
    from repro.service.netclient import ServiceClient
    from repro.service.spec import JobSpec

    drains = []
    for trial in range(DRAIN_TRIALS):
        root = scratch / f"drain-{trial}"
        server = BackgroundServer(root).start()
        client = ServiceClient(server.host, server.port, tenant="bench")
        for i in range(4):
            client.submit(JobSpec(model="wall", engine="serial", steps=2,
                                  tag=f"drain-{trial}-{i}"))
        t0 = time.perf_counter()
        server.stop()
        drains.append(time.perf_counter() - t0)
        assert client.readyz() is False
    return {
        "trials": DRAIN_TRIALS,
        "drain_s_median": statistics.median(drains),
        "drain_s_max": max(drains),
    }


def main(argv=None) -> int:
    args = bench_arg_parser(__doc__).parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-http-") as tmp:
        scratch = Path(tmp)
        clean = run_request_campaign(scratch / "clean", faulted=False)
        faulted = run_request_campaign(scratch / "faulted", faulted=True)
        drain = bench_drain(scratch)
    tax = (
        faulted["latency"]["p50_ms"] / clean["latency"]["p50_ms"]
        if clean["latency"]["p50_ms"] else None
    )
    payload = {
        "requests": REQUESTS,
        "seed": SEED,
        "net_fault_rate": NET_FAULT_RATE,
        "clean": clean,
        "faulted": faulted,
        "fault_latency_ratio_p50": tax,
        "drain": drain,
    }
    path = write_bench_json("http", payload, args.json_path)
    for label, row in (("clean  ", clean), ("faulted", faulted)):
        lat = row["latency"]
        print(
            f"{label}: {row['pairs']} submit/status pairs, "
            f"p50 {lat['p50_ms']:.1f} ms, p99 {lat['p99_ms']:.1f} ms, "
            f"{row['requests_per_s']:.0f} req/s, "
            f"{row['client_retries']} retries, "
            f"{row['client_giveups']} giveups"
        )
    print(
        f"drain  : median {1e3 * drain['drain_s_median']:.1f} ms over "
        f"{drain['trials']} trials"
    )
    print(f"report : {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
