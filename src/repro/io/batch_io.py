"""Serialisation helpers for the batch service.

Two concerns live here: turning a :class:`~repro.engine.results.
SimulationResult` into a JSON-safe summary dict (what the
:class:`~repro.service.store.ResultStore` caches and ``batch results``
prints), and writing JSON files *atomically* (tmp file + ``os.rename``)
so a killed scheduler or worker never leaves a half-written record for
the next process to trip over.

Every durability-relevant operation in this module is also a *chaos
hook*: when a storage fault plan is armed in the process
(``IOFaultInjector.install`` in :mod:`repro.service.chaos`, which each
process entry calls), the atomic writers,
:func:`read_json`, and :func:`locked_fd` consult the process-wide
injector and may suffer ``ENOSPC``, a simulated crash after the rename,
or injected IO latency — on the same code path a clean process runs.
With no plan armed the hooks are a single ``is None`` check, so the
clean path pays nothing measurable.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None
try:
    import msvcrt
except ImportError:  # pragma: no cover - POSIX
    msvcrt = None

#: Process-wide storage fault injector (None = clean path), armed
#: only by ``IOFaultInjector.install`` / ``install_from_env``.
_io_chaos = None


def set_io_chaos(injector) -> None:
    """Install (or clear, with ``None``) the process fault injector."""
    global _io_chaos
    _io_chaos = injector


def get_io_chaos():
    """The armed injector, or ``None`` when the process is clean."""
    return _io_chaos


def _fsync_dir(dirpath: Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    ``os.replace`` makes the *file* atomic, but the new directory entry
    itself lives in the parent directory's metadata — a power loss right
    after the rename can roll the entry back unless the directory fd is
    fsynced too. No-op on platforms without directory fds (Windows).
    """
    if os.name != "posix":  # pragma: no cover - Windows
        return
    try:
        fd = os.open(dirpath, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dir fds
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def locked_fd(path: str | Path, mode: int = 0o644):
    """Open ``path`` read-write under an exclusive lock; yields the fd.

    Serialises the read-modify-write cycles behind the queue's submit
    counter, the per-job record transitions, and the result cache's
    hit/miss counters with the platform's advisory lock: ``flock`` on
    POSIX, ``msvcrt.locking`` on Windows. The lock is never silently
    skipped — a platform with neither raises — so concurrent writers
    cannot allocate duplicate sequence numbers or lose counter
    increments on any platform.

    A crashed holder needs no takeover: the kernel drops the lock with
    the holder's descriptor.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chaos = _io_chaos
    if chaos is not None:
        chaos.on_lock(path)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, mode)
    msvcrt_locked = False
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        elif msvcrt is not None:  # pragma: no cover
            while True:
                os.lseek(fd, 0, os.SEEK_SET)
                try:
                    msvcrt.locking(fd, msvcrt.LK_LOCK, 1)
                    msvcrt_locked = True
                    break
                except OSError:
                    time.sleep(0.01)
        else:  # pragma: no cover - no supported platform lands here
            raise RuntimeError(f"no fcntl or msvcrt: cannot lock {path}")
        yield fd
    finally:
        if msvcrt_locked:  # pragma: no cover - Windows
            with contextlib.suppress(OSError):
                os.lseek(fd, 0, os.SEEK_SET)
                msvcrt.locking(fd, msvcrt.LK_UNLCK, 1)
        os.close(fd)


def _replace_atomic(path: Path, mode: str, write_payload) -> Path:
    """The one atomic-replace protocol behind every durable write.

    ``write_payload(fh)`` fills a temporary file in ``path``'s
    directory, which is fsynced and renamed into place, after which the
    *parent directory* is fsynced too — so concurrent readers see
    either the old file or the complete new one, and a crash
    immediately after the rename cannot lose the directory entry. A
    failure at any step before the rename leaves the destination
    untouched and no temp file behind; a failure after it leaves the
    new content in place.

    Under an armed fault plan (:mod:`repro.service.chaos`) this is the
    primary chaos hook: ``crash_after_rename`` raises
    :class:`~repro.service.chaos.ChaosIOError` after the rename, so
    the write lands although the caller saw a failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    chaos = _io_chaos
    fault = chaos.on_write(path) if chaos is not None else None
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            write_payload(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fault == "crash_after_rename":
            chaos.raise_fault(fault, path)
        _fsync_dir(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def write_json_atomic(path: str | Path, obj) -> Path:
    """Write ``obj`` as JSON to ``path`` atomically and durably
    (:func:`_replace_atomic`, chaos write hook included)."""
    return _replace_atomic(
        Path(path), "w",
        lambda fh: json.dump(obj, fh, indent=2, sort_keys=True),
    )


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically and durably — the
    :func:`_replace_atomic` protocol for the service's non-JSON
    records (queue tickets, marker files)."""
    return _replace_atomic(Path(path), "w", lambda fh: fh.write(text))


def copy_file_atomic(src: str | Path, dst: str | Path) -> Path:
    """Copy ``src`` to ``dst`` atomically and durably — the
    result-store variant of :func:`write_json_atomic` for payloads that
    already exist on disk. The chaos write hook applies to ``dst``."""

    def copy(fh) -> None:
        with open(src, "rb") as sf:
            shutil.copyfileobj(sf, fh, 1 << 20)

    return _replace_atomic(Path(dst), "wb", copy)


def read_json(path: str | Path):
    """Load a JSON file; returns ``None`` when missing or unparseable.

    A missing or corrupt file is how the scheduler *detects* a crashed
    worker (the outcome never landed), so both cases map to ``None``
    rather than raising — a durability fault must degrade into a
    detected crash, never into wrong data. A job record that does not
    parse therefore reads as absent, and the final audit reports its
    job as lost.
    """
    chaos = _io_chaos
    if chaos is not None:
        chaos.on_read(Path(path))
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def summarize_result(
    result,
    *,
    engine: str = "",
    wall_seconds: float = 0.0,
    resumed_from: int = 0,
) -> dict:
    """Flatten a :class:`SimulationResult` into a JSON-safe summary.

    ``resumed_from`` is the checkpoint step a retried attempt restarted
    at and ``total_steps`` the step the run reached. ``steps_executed``
    (0 on a cache hit) and every other field describe only the steps
    after ``resumed_from``, the ones *this* run integrated.
    """
    failure = None
    if result.failure is not None:
        failure = {
            "error": result.failure.error,
            "message": result.failure.message,
            "steps_completed": result.failure.steps_completed,
            "rollbacks": result.failure.rollbacks,
        }
    return {
        "engine": engine,
        "steps_executed": result.n_steps,
        "resumed_from": resumed_from,
        "total_steps": resumed_from + result.n_steps,
        "total_cg_iterations": result.total_cg_iterations,
        "mean_cg_iterations": result.mean_cg_iterations,
        "max_total_displacement": result.max_total_displacement(),
        "max_solver_rung": result.max_solver_rung,
        "rollbacks": result.rollbacks,
        "contract_violations": dict(result.contract_violations),
        "n_warnings": len(result.warnings),
        "wall_seconds": wall_seconds,
        "module_times": dict(result.module_times.times),
        "metrics": (
            result.metrics.snapshot()
            if getattr(result, "metrics", None) is not None
            else {}
        ),
        "failure": failure,
    }
