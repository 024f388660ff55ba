"""Host-speed calibration: what makes the wall clock comparable at all.

Measured on the 2-core sandbox: the same work runs 1.0x to 1.7x slower
than the machine's best from one 3-second window to the next (steal is
nil and CPU time moves with wall time, so the virtual CPU itself slows).
Ten runs of one workload spread 14-21 % between their quartiles,
whichever of median, mean or minimum of the laps is taken.

Small fixed kernels sampled every ``PERIOD`` seconds *inside the
measured process* see the same slowdown, but not all by the same
amount: against the wall time of an engine lap, a pure-Python loop moves
with a log-log slope of 1.7-2.5 (the engine slows twice as much as the
loop), a 4 MB random gather with 1.5-1.9, and the three kernels kept
here (a 6x6 block product over 3000 blocks, a scatter-add, and 400 tiny
NumPy calls, i.e. what the engines spend their time on) with 0.9-1.2.
Dividing a lap's wall time by the geometric mean of these three over
the same interval left 3-5 % between laps where the raw times had
13 %, and 3.5-5.3 % between the medians of three laps where the raw
medians had 14-21 %. (A first version built on the Python loop alone
left 13 %.)

The kernels are timed on the sampling thread's own CPU clock
(``time.thread_time``): they release the interpreter lock, and a wall
clock would count the wait to get it back from a busy main thread.

So every wall-clock number of the harness is a **calibrated** one:
measured seconds divided by the slowdown over the same interval. The
result reads as seconds on a machine that runs each kernel in exactly
its reference time; raw seconds and slowdowns are kept beside it in
``bench.json``.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import numpy as np

PERIOD = 0.04
#: An interval is widened to at least this much on each side, so that a
#: microsecond-scale call still sees a few samples.
PAD = 0.25

_RNG = np.random.default_rng(0)
_BLOCKS = _RNG.standard_normal((3000, 6, 6))
_VECTORS = _RNG.standard_normal((3000, 6))
_TARGET = np.zeros(3000)
_INDEX = _RNG.integers(0, 3000, 5000)


def _block_product() -> None:
    np.einsum("nij,nj->ni", _BLOCKS, _VECTORS)


def _scatter_add() -> None:
    np.add.at(_TARGET, _INDEX, 1.0)


def _small_calls() -> None:
    for _ in range(200):
        np.dot(_BLOCKS[0], _VECTORS[0])
        np.concatenate([_VECTORS[0], _VECTORS[1]])


#: ``(kernel, reference seconds)``: each kernel's CPU time on the sandbox
#: at its usual speed, sampled beside a running engine (cold caches).
#: Constants, so that two runs (and two commits) are scaled to the same
#: machine.
KERNELS = (
    (_block_product, 240e-6),
    (_scatter_add, 32e-6),
    (_small_calls, 320e-6),
)


def pin_to_one_cpu() -> set[int]:
    """Keep the calling thread, and the threads it starts from now on,
    on one CPU; returns the CPUs it was allowed before.

    Single-threaded work loses nothing by it, and the calibration thread
    must share the CPU of the work it calibrates: woken on the idle CPU
    instead, the kernels ran 1.9-2.7x slower (cold caches) than beside a
    busy main thread, and which of the two happened changed from one run
    to the next.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    return before


def sample() -> list[float]:
    """Run every kernel once; returns their CPU seconds."""
    out = []
    for kernel, _ in KERNELS:
        t0 = time.thread_time()
        kernel()
        out.append(time.thread_time() - t0)
    return out


class Calibrator:
    """Samples the kernels on a daemon thread until stopped."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, list[float]]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="calibration", daemon=True
        )

    def start(self) -> "Calibrator":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append((time.time(), sample()))
            self._stop.wait(PERIOD)

    def slowdown(self, start: float, end: float) -> float:
        """Geometric mean, over the kernels, of each one's median CPU
        time over ``[start, end]`` (``time.time`` stamps) relative to
        its reference; 1.0 before any sample."""
        near = [d for t, d in self.samples if start - PAD <= t <= end + PAD]
        chosen = near or [d for _, d in self.samples]
        if not chosen:
            return 1.0
        logs = [
            math.log(statistics.median(d[k] for d in chosen) / reference)
            for k, (_, reference) in enumerate(KERNELS)
        ]
        return math.exp(statistics.fmean(logs))
