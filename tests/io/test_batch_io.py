"""batch_io durability primitives: atomic writes and the one lock."""

import json
import multiprocessing
import os
import stat
import threading
import time

import pytest
from atomic_writers import NEW, OLD, WRITERS

from repro.io import batch_io
from repro.io.batch_io import locked_fd, read_json, write_json_atomic
from repro.service.chaos import IOFaultInjector, IOFaultPlan


class TestAtomicWrite:
    def test_write_then_read_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "obj.json"
        write_json_atomic(path, {"a": 1, "b": [1, 2]})
        assert read_json(path) == {"a": 1, "b": [1, 2]}

    def test_no_tmp_litter_on_success(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json_atomic(path, {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]

    def test_parent_directory_is_fsynced(self, tmp_path, monkeypatch):
        """The rename is only durable once the parent dir entry is synced."""
        synced_dirs = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            try:
                if stat.S_ISDIR(os.fstat(fd).st_mode):
                    synced_dirs.append(fd)
            except OSError:
                pass
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        write_json_atomic(tmp_path / "obj.json", {"a": 1})
        assert synced_dirs, "write_json_atomic never fsynced the parent dir"

    def test_read_json_missing_and_corrupt_return_none(self, tmp_path):
        assert read_json(tmp_path / "absent.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps({"a": 1})[:-4])
        assert read_json(torn) is None


class _Crash(OSError):
    """The error a crash point raises."""


class _CrashingFile:
    """The temp file the atomic writer fills, crashing at one step:
    ``write`` lands half of its first chunk before raising, ``flush``
    raises before flushing."""

    def __init__(self, fh, step):
        self._fh, self._step = fh, step

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        if self._step == "write":
            self._fh.write(data[: len(data) // 2])
            raise _Crash("crash mid-write")
        return self._fh.write(data)

    def flush(self):
        if self._step == "flush":
            raise _Crash("crash at flush")
        self._fh.flush()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _arm_crash(monkeypatch, step):
    """Make the atomic-replace protocol raise at ``step``."""
    real_fdopen, real_fsync = os.fdopen, os.fsync
    if step in ("write", "flush"):
        monkeypatch.setattr(
            batch_io.os, "fdopen",
            lambda fd, mode: _CrashingFile(real_fdopen(fd, mode), step),
        )
    elif step == "fsync":
        def fsync(fd):
            if stat.S_ISREG(os.fstat(fd).st_mode):
                raise _Crash("crash at fsync")
            real_fsync(fd)

        monkeypatch.setattr(batch_io.os, "fsync", fsync)
    elif step == "replace":
        def replace(src, dst):
            raise _Crash("crash at os.replace")

        monkeypatch.setattr(batch_io.os, "replace", replace)
    else:
        def fsync_dir(dirpath):
            raise _Crash("crash at the directory fsync")

        monkeypatch.setattr(batch_io, "_fsync_dir", fsync_dir)


#: Each step of the atomic-replace protocol, and whose content a crash
#: there leaves at the destination.
CRASH_POINTS = {
    "write": OLD, "flush": OLD, "fsync": OLD, "replace": OLD,
    "fsync_dir": NEW,
}


@pytest.mark.parametrize("step", list(CRASH_POINTS))
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_crash_at_any_step_leaves_old_or_new(tmp_path, monkeypatch,
                                               writer, step):
    """The crash-point oracle: whichever step of the protocol fails, the
    destination holds the whole old content or the whole new one — never
    a torn file — and no temp sibling survives."""
    write, on_disk = WRITERS[writer]
    (tmp_path / "jobs").mkdir()
    target = tmp_path / "jobs" / "r.dat"
    write(target, OLD)
    _arm_crash(monkeypatch, step)
    with pytest.raises(_Crash):
        write(target, NEW)
    monkeypatch.undo()
    assert target.read_bytes() == on_disk(CRASH_POINTS[step])
    if writer == "json":
        assert read_json(target) == CRASH_POINTS[step].decode()
    assert [p.name for p in target.parent.iterdir()] == ["r.dat"]


def _bump(counter, times):
    """``times`` read-modify-write increments of the integer in ``counter``."""
    for _ in range(times):
        with locked_fd(counter) as fd:
            raw = os.read(fd, 32)
            value = int(raw) + 1 if raw.strip() else 1
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, str(value).encode())


def _bump_under_chaos(counter, times, seed):
    """Child process: every lock acquisition draws a storage fault."""
    IOFaultInjector.install(IOFaultPlan(seed=seed, rate=1.0))
    _bump(counter, times)


def _hold_until_killed(target, holding):
    """Child process: take the lock, say so, and never release it."""
    with locked_fd(target):
        holding.set()
        time.sleep(60.0)


#: fresh interpreters: each child arms (or not) its own process injector
SPAWN = multiprocessing.get_context("spawn")


class TestLockedFd:
    def test_serialises_read_modify_write(self, tmp_path):
        counter = tmp_path / "seq"
        n_threads, n_incr = 8, 25
        threads = [
            threading.Thread(target=_bump, args=(counter, n_incr))
            for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert int(counter.read_text()) == n_threads * n_incr

    def test_excludes_across_processes_under_an_armed_plan(self, tmp_path):
        """A fault perturbs the lock, it never swaps it: processes that
        each draw a fault on every acquisition lose no increment."""
        counter = tmp_path / "jobs" / "seq"
        n_procs, n_incr = 4, 50
        procs = [
            SPAWN.Process(target=_bump_under_chaos, args=(counter, n_incr, k))
            for k in range(n_procs)
        ]
        for p in procs:
            p.start()
        try:
            for p in procs:
                p.join(timeout=60)
                assert p.exitcode == 0
        finally:
            for p in procs:
                p.kill()  # no child outlives a failed run
        assert int(counter.read_text()) == n_procs * n_incr

    def test_killed_holder_does_not_wedge_the_lock(self, tmp_path):
        """A crashed holder needs no takeover: the kernel drops its lock."""
        target = tmp_path / "seq"
        holding = SPAWN.Event()
        holder = SPAWN.Process(target=_hold_until_killed, args=(target, holding))
        holder.start()
        try:
            assert holding.wait(30.0)
            acquired = threading.Event()

            def contend():
                with locked_fd(target):
                    acquired.set()

            t = threading.Thread(target=contend, daemon=True)
            t.start()
            assert not acquired.wait(0.15)  # a live holder is respected
            holder.kill()
            assert acquired.wait(1.0)
            t.join(timeout=5)
        finally:
            holder.kill()
            holder.join(timeout=5)
        assert not holder.is_alive()
