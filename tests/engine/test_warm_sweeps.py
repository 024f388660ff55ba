"""Each open–close sweep's CG starts from the sweep before's solution.

Consecutive sweeps of one loop-2 attempt solve the same ``K`` with some
spring weights switched, so ``EngineBase._attempt`` passes each converged
sweep's ``res.x`` on as the next sweep's ``x0``; the attempt's first
sweep starts from the step before's solution (``_prev_solution``), a
retry too. The fallback ladder's cold restart after a warm rung with the
same preconditioner is skipped only while that ``x0`` is all zero.
"""

import numpy as np
import pytest

import repro.engine.base as engine_base
from repro.core.state import SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import build_brick_wall
from repro.solvers.cg import CGResult, pcg


class Spy:
    """Wrap ``pcg``: record every call's ``x0`` and solution, per solve
    and per attempt; fail (without running CG) the calls whose 0-based
    index is in ``fail``."""

    def __init__(self, fail=()):
        self.fail = set(fail)
        self.calls = 0
        # per attempt: (start, [per solve: (x0, [per call: (name,
        # x0 given, x, converged)])])
        self.attempts = []

    def __call__(self, a, b, x0=None, preconditioner=None, **kwargs):
        i, self.calls = self.calls, self.calls + 1
        if i in self.fail:
            res = CGResult(np.zeros(b.size), 1, False, [1.0])
        else:
            res = pcg(a, b, x0=x0, preconditioner=preconditioner, **kwargs)
        rungs = self.attempts[-1][1][-1][1]
        rungs.append((preconditioner.name, x0 is not None, res.x.copy(),
                      res.converged))
        return res


def recording(cls, spy):
    """``cls`` reporting attempt and solve boundaries to ``spy``."""

    class Recording(cls):
        def _attempt(self, *args):
            spy.attempts.append((self._prev_solution.copy(), []))
            return super()._attempt(*args)

        def _solve_with_fallback(self, matrix, rhs, x0, first_rung=0):
            spy.attempts[-1][1].append((x0.copy(), []))
            return super()._solve_with_fallback(matrix, rhs, x0, first_rung)

    return Recording


def run(cls, monkeypatch, fail=(), steps=5, **kw):
    spy = Spy(fail)
    monkeypatch.setattr(engine_base, "pcg", spy)
    engine = recording(cls, spy)(
        build_brick_wall(3, 4),
        SimulationControls(time_step=5e-4, dynamic=True), **kw,
    )
    return engine.run(steps=steps), spy


def same(a, b):
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cls, kw", [
    (SerialEngine, {}), (GpuEngine, {}), (HybridEngine, {}),
    (DomainEngine, {"n_domains": 2}),
], ids=["serial", "gpu", "hybrid", "domain"])
def test_each_sweep_starts_from_the_sweep_before(cls, kw, monkeypatch):
    result, spy = run(cls, monkeypatch, **kw)
    assert [s.open_close_iterations for s in result.steps] == [4, 4, 3, 3, 2]
    assert len(spy.attempts) == len(result.steps)  # no retry
    for start, solves in spy.attempts:
        assert len(solves) >= 2
        expected = start  # sweep 1: the step before's solution
        for x0, rungs in solves:
            ((_, warm, x, converged),) = rungs  # rung 0 converged
            assert warm and converged and same(x0, expected)
            expected = x  # sweep k >= 2: sweep k-1's, bit for bit
    # the first step starts from zero, every later one from a solution
    assert not spy.attempts[0][0].any() and spy.attempts[1][0].any()


@pytest.mark.parametrize("fail, cold_run", [
    ((0, 1), False),  # sweep 1 of step 0: x0 is the zero vector
    ((1, 2), True),   # sweep 2: x0 is sweep 1's solution
], ids=["zero-x0-skips", "warm-x0-restarts"])
def test_the_cold_rung_is_skipped_only_while_x0_is_zero(
    fail, cold_run, monkeypatch
):
    result, spy = run(GpuEngine, monkeypatch, fail=fail, steps=1)
    solves = [solve for _, attempt in spy.attempts for solve in attempt]
    x0, rungs = next(s for s in solves if not s[1][0][3])  # rung 0 failed
    assert x0.any() == cold_run
    names = [(name, warm) for name, warm, _, _ in rungs]
    assert names == [("bj", True), ("ssor", True)] + (
        [("ssor", False)] if cold_run else []
    )
    # a skipped restart ends the attempt; a run one converges
    first = result.rejected[0].cause if result.rejected else None
    assert first == (None if cold_run else "cg_non_convergence")
