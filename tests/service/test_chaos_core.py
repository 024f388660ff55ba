"""The shared chaos core: both seams replay pinned decision streams
(the network seam's is still its separate pre-merge module's), and each
shared protocol is defined once."""

import ast
from pathlib import Path

import repro.service
from repro.service.chaos import (
    IOFaultInjector,
    IOFaultPlan,
    NetFaultInjector,
    NetFaultPlan,
)

IO_CODES = {
    ".": None, "T": "torn_write", "B": "crash_before_rename",
    "A": "crash_after_rename", "E": "enospc", "L": "io_latency",
}
NET_CODES = {
    ".": None, "R": "conn_reset", "S": "slow_loris",
    "T": "truncated_response", "L": "net_latency",
}

#: First 200 decisions of IOFaultInjector(IOFaultPlan(seed=0, rate=0.3))
#: over IO_OPS x IO_PATHS. Re-recorded when the lock-swapping fault was
#: deleted: a ``lock`` operation now chooses among one candidate instead
#: of two and a one-candidate choice draws nothing, so the stream equals
#: the pre-merge module's up to the first faulted lock (decision 22) and
#: differs in 65 of the 200 after it. The network stream is untouched.
IO_STREAM = (
    "TL..........AL.....A..L.L.L..L....L.E.....LB.L...."
    "..T..EB....LLE.....L.B...LT......E.....L..A....L.."
    "......L...LT......L...L........TA...B....L......L."
    "....L............T.L....L.E.....LL....TL....L..L.."
)
IO_OPS = ("write", "read", "lock", "write")
IO_PATHS = (
    "/b/queue/jobs/j1.json", "/b/queue/leases/j1.json",
    "/b/queue/journal/events.jsonl", "/b/store/index.json",
    "/b/chaos-plan.json", "/b/scratch/j1/outcome.json", "/b/queue/seq",
)

#: First 200 decisions of NetFaultInjector(NetFaultPlan(seed=0, rate=0.3))
#: over NET_ROUTES, recorded at the same commit; NET_DRAWS are the
#: follow-up draws in order (conn_reset -> reset_before_handling(),
#: net_latency -> latency(), slow_loris -> slow_delay(); 12 decimals).
NET_STREAM = (
    ".......TL....S......L...T..RLR....R.T........R.R.."
    "..............R.T...TS...S..L....SRR...S.........."
    ".R..L.......L..............L.L...R.....S.........."
    "...TS.....R...T.L.R......SL......R......S......S.R"
)
NET_DRAWS = [
    0.037292081361, 0.035876664789, 0.021822172165, False, 0.001955853799,
    False, True, True, True, False, 0.023813275657, 0.020934631935,
    0.000107690161, 0.046127923425, True, False, 0.012146401815, True,
    0.011153692374, 0.024627242704, 0.049299672873, 0.024349839812, False,
    0.007409687451, 0.0402941364, True, 0.016489906406, True,
    0.018187169012, 0.049049833661, False, 0.026227186291, 0.019554570803,
    True,
]
NET_ROUTES = (
    "/v1/jobs", "/v1/jobs/j1", "/healthz", "/v1/jobs/j1/result",
    "/readyz", "/metrics", "/v1/jobs/j1/events",
)


class TestPinnedDecisionStreams:
    """Seeded soaks must replay the same faults across the merge: same
    ``derive_seed`` tokens, same draw order."""

    def test_storage_stream(self):
        inj = IOFaultInjector(IOFaultPlan(seed=0, rate=0.3))
        got = [
            inj.decide(IO_OPS[i % len(IO_OPS)],
                       Path(IO_PATHS[i % len(IO_PATHS)]))
            for i in range(200)
        ]
        assert got == [IO_CODES[c] for c in IO_STREAM]

    def test_network_stream(self):
        inj = NetFaultInjector(NetFaultPlan(seed=0, rate=0.3))
        follow_up = {
            "conn_reset": inj.reset_before_handling,
            "net_latency": lambda: round(inj.latency(), 12),
            "slow_loris": lambda: round(inj.slow_delay(), 12),
        }
        faults, draws = [], []
        for i in range(200):
            fault = inj.decide(NET_ROUTES[i % len(NET_ROUTES)])
            faults.append(fault)
            if fault in follow_up:
                draws.append(follow_up[fault]())
        assert faults == [NET_CODES[c] for c in NET_STREAM]
        assert draws == NET_DRAWS


def test_shared_protocols_are_defined_once():
    """Plan plumbing, the draw, metrics binding and arming each have
    exactly one ``def`` in the service package."""
    defs: dict[str, int] = {}
    for path in Path(repro.service.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = defs.get(node.name, 0) + 1
    once = ("armed_faults", "save", "load", "_draw", "bind_metrics",
            "install", "install_from_env")
    assert {name: defs.get(name, 0) for name in once} == dict.fromkeys(once, 1)
