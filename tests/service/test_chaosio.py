"""Storage fault injector: determinism, budget, fault semantics."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from atomic_writers import NEW, OLD, WRITERS

from repro.io import batch_io
from repro.io.batch_io import read_json, write_json_atomic
from repro.service.chaos import (
    ChaosIOError,
    IOFaultInjector,
    IOFaultPlan,
    IO_FAULT_REGISTRY,
)
from repro.service.client import BatchClient
from repro.service.spec import JobSpec

install = IOFaultInjector.install
install_from_env = IOFaultInjector.install_from_env


@pytest.fixture(autouse=True)
def clean_chaos():
    """Every test starts and ends with a disarmed process."""
    install(None)
    yield
    install(None)


def plan(**kwargs) -> IOFaultPlan:
    defaults = dict(seed=7, rate=1.0)
    defaults.update(kwargs)
    return IOFaultPlan(**defaults)


class TestPlan:
    def test_roundtrip_via_file(self, tmp_path):
        p = plan(faults=("crash_after_rename", "enospc"), paths=("jobs",),
                 max_faults=5, latency_s=0.01)
        path = p.save(tmp_path / "plan.json")
        assert IOFaultPlan.load(path) == p

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown io fault"):
            IOFaultPlan(faults=("disk_melts",))

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            IOFaultPlan(rate=1.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown IOFaultPlan"):
            IOFaultPlan.from_dict({"seed": 0, "blast_radius": 3})

    def test_none_faults_arms_whole_registry(self):
        assert set(plan().armed_faults()) == set(IO_FAULT_REGISTRY)


class TestDecisions:
    def test_same_plan_same_decision_stream(self, tmp_path):
        a = IOFaultInjector(plan(rate=0.5))
        b = IOFaultInjector(plan(rate=0.5))
        path = tmp_path / "jobs" / "j1.json"
        stream_a = [a.decide("write", path) for _ in range(64)]
        stream_b = [b.decide("write", path) for _ in range(64)]
        assert stream_a == stream_b
        assert any(f is not None for f in stream_a)

    def test_different_seed_different_stream(self, tmp_path):
        a = IOFaultInjector(plan(seed=1, rate=0.5))
        b = IOFaultInjector(plan(seed=2, rate=0.5))
        path = tmp_path / "jobs" / "j1.json"
        assert [a.decide("write", path) for _ in range(64)] != [
            b.decide("write", path) for _ in range(64)
        ]

    def test_budget_caps_total_injections(self, tmp_path):
        inj = IOFaultInjector(plan(max_faults=3))
        path = tmp_path / "jobs" / "j1.json"
        for _ in range(50):
            inj.decide("write", path)
        assert inj.total == 3

    def test_journal_and_plan_paths_protected(self, tmp_path):
        inj = IOFaultInjector(plan())
        for _ in range(20):
            assert inj.decide("write", tmp_path / "journal" / "e.jsonl") is None
            assert inj.decide("read", tmp_path / "chaos-plan.json") is None
        assert inj.total == 0

    def test_path_filter_restricts_targets(self, tmp_path):
        inj = IOFaultInjector(plan(paths=("leases",)))
        assert inj.decide("write", tmp_path / "jobs" / "j.json") is None
        assert inj.decide("write", tmp_path / "leases" / "j.json") is not None

    def test_op_gating(self, tmp_path):
        # enospc is a write fault: a read-only arming never fires
        inj = IOFaultInjector(plan(faults=("enospc",)))
        for _ in range(20):
            assert inj.decide("read", tmp_path / "jobs" / "j.json") is None
        assert inj.decide("write", tmp_path / "jobs" / "j.json") == "enospc"


class TestWriteFaultSemantics:
    """What each write fault leaves on disk, via write_json_atomic."""

    def arm(self, fault: str) -> IOFaultInjector:
        return install(plan(faults=(fault,)))

    def test_crash_before_rename_preserves_old_content(self, tmp_path):
        # enospc is the write fault that fires before the rename
        target = tmp_path / "jobs" / "r.json"
        write_json_atomic(target, {"v": 1})
        self.arm("enospc")
        with pytest.raises(ChaosIOError):
            write_json_atomic(target, {"v": 2})
        install(None)
        assert read_json(target) == {"v": 1}
        # no tmp litter either
        assert list(target.parent.glob(".*.tmp")) == []

    def test_crash_after_rename_lands_despite_error(self, tmp_path):
        target = tmp_path / "jobs" / "r.json"
        self.arm("crash_after_rename")
        with pytest.raises(ChaosIOError):
            write_json_atomic(target, {"v": 2})
        install(None)
        # the caller saw a failure, but the write took effect: callers
        # must be idempotent (the scheduler trusts the outcome file)
        assert read_json(target) == {"v": 2}

    def test_enospc_raises_with_errno_and_writes_nothing(self, tmp_path):
        self.arm("enospc")
        target = tmp_path / "jobs" / "r.json"
        with pytest.raises(OSError) as err:
            write_json_atomic(target, {"v": 1})
        assert err.value.errno == errno.ENOSPC
        assert not target.exists()


@pytest.mark.parametrize("writer", sorted(WRITERS))
class TestEveryAtomicWriter:
    """The write faults that raise, through each atomic writer: each
    must leave the same destination state whichever writer issued it."""

    @pytest.fixture
    def target(self, tmp_path):
        (tmp_path / "jobs").mkdir()
        return tmp_path / "jobs" / "r.dat"

    @staticmethod
    def fail(fault, writer, target):
        """Write NEW under ``fault``; return (error, NEW's on-disk form)."""
        write, on_disk = WRITERS[writer]
        install(plan(faults=(fault,)))
        with pytest.raises(ChaosIOError) as err:
            write(target, NEW)
        install(None)
        assert err.value.fault == fault
        assert list(target.parent.glob(".*.tmp")) == []  # no tmp litter
        return err.value, on_disk(NEW)

    def test_clean_write_round_trips(self, writer, target):
        write, on_disk = WRITERS[writer]
        assert write(target, NEW) == target
        assert target.read_bytes() == on_disk(NEW)

    def test_crash_before_rename(self, writer, target):
        write, on_disk = WRITERS[writer]
        write(target, OLD)
        self.fail("enospc", writer, target)  # raises before the rename
        assert target.read_bytes() == on_disk(OLD)  # old content survives

    def test_crash_after_rename(self, writer, target):
        _err, full = self.fail("crash_after_rename", writer, target)
        assert target.read_bytes() == full  # landed despite the error

    def test_enospc(self, writer, target):
        err, _full = self.fail("enospc", writer, target)
        assert err.errno == errno.ENOSPC
        assert not target.exists()


class TestEnvArming:
    def test_install_from_env_arms_lazily(self, tmp_path, monkeypatch):
        p = plan(faults=("enospc",))
        path = p.save(tmp_path / "chaos-plan.json")
        monkeypatch.setenv(IOFaultInjector.ENV, str(path))
        inj = install_from_env()
        assert inj is not None and inj.plan == p
        with pytest.raises(OSError):
            write_json_atomic(tmp_path / "jobs" / "x.json", {})

    def test_unset_env_disarms(self, monkeypatch):
        monkeypatch.delenv(IOFaultInjector.ENV, raising=False)
        assert install_from_env() is None
        assert batch_io.get_io_chaos() is None

    def test_fresh_batch_run_counts_every_fault_it_injects(self, tmp_path):
        """``batch run`` arms the seam before it builds its pool, so the
        scheduler's ``batch.io_faults`` counter is bound to the injector
        that draws the faults."""
        root = tmp_path / "batch"
        BatchClient(root).submit(
            JobSpec(model="wall", engine="serial", steps=2, tag="faulted")
        )
        path = plan(faults=("io_latency",), max_faults=16).save(
            tmp_path / "chaos-plan.json"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src),
               IOFaultInjector.ENV: str(path)}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "run",
             "--dir", str(root), "--workers", "1", "--quiet"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        (snapshot,) = (root / "metrics").glob("sched-*.json")
        counters = json.loads(snapshot.read_text())["counters"]
        assert counters["batch.io_faults"] > 0
        assert counters["batch.io_faults.io_latency"] == \
            counters["batch.io_faults"]
