"""The shared chaos core: both seams replay pinned decision streams,
and each shared protocol is defined once."""

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
    ".": None, "A": "crash_after_rename", "E": "enospc", "L": "io_latency",
}
NET_CODES = {".": None, "R": "conn_reset", "L": "net_latency"}

#: First 200 decisions of IOFaultInjector(IOFaultPlan(seed=0, rate=0.3))
#: over IO_OPS x IO_PATHS. Re-recorded when the lock-swapping fault was
#: deleted (a ``lock`` operation chooses among one candidate, and a
#: one-candidate choice draws nothing), and again when ``torn_write``
#: and ``crash_before_rename`` were deleted: a ``write`` now chooses
#: among three candidates instead of five, which still takes one draw,
#: so every ``.`` stayed where it was and only the letters of 19 write
#: decisions changed.
IO_STREAM = (
    "AL..........EL.....E..L.L.L..L....L.L.....LE.L...."
    "..A..LA....LLL.....L.E...LA......E.....L..E....L.."
    "......L...LA......L...L........AE...A....L......L."
    "....L............A.L....L.L.....LL....AL....L..L.."
)
IO_OPS = ("write", "read", "lock", "write")
IO_PATHS = (
    "/b/queue/jobs/j1.json", "/b/queue/leases/j1.json",
    "/b/queue/journal/events.jsonl", "/b/store/index.json",
    "/b/chaos-plan.json", "/b/scratch/j1/outcome.json", "/b/queue/seq",
)

#: First 200 decisions of NetFaultInjector(NetFaultPlan(seed=0, rate=0.3))
#: over NET_ROUTES; NET_DRAWS are the follow-up draws in order
#: (conn_reset -> reset_before_handling(), net_latency -> latency(); 12
#: decimals). Re-recorded when ``slow_loris`` and ``truncated_response``
#: were deleted: the stream forks at the first deleted fault, whose
#: inter-chunk delays no longer draw.
NET_STREAM = (
    ".......L.....L.......L..R..LLR...L..R.....L..R...."
    "............R.L.L.RR.....R.R..R....R............R."
    ".L........L..............LL....R....R............."
    "L.R..L....L...L.L..L.L......R......R......R.R....L"
)
NET_DRAWS = [
    0.009225054872, 0.040836887636, 0.041569299187, True, 0.013114827369,
    0.001955853799, False, 0.035657770933, False, 0.007165002289, False,
    False, 0.040840702167, 0.018164303394, False, False, False, True, True,
    True, True, 0.011153692374, 0.024627242704, 0.049299672873,
    0.024349839812, False, True, 0.007311600085, False, 0.010695497813,
    0.00843709598, 0.018256669995, 0.042809393216, 0.018187169012,
    0.049049833661, False, False, True, True, 0.0343312194,
]
NET_ROUTES = (
    "/v1/jobs", "/v1/jobs/j1", "/healthz", "/v1/jobs/j1/result",
    "/readyz", "/metrics", "/v1/jobs/j1/cancel",
)


class TestPinnedDecisionStreams:
    """Seeded soaks replay the same faults: same ``derive_seed`` tokens,
    same draw order."""

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
