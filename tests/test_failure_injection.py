"""Failure-injection tests: wrong inputs fail loudly at the API boundary.

Production numerical code must reject garbage before it reaches a kernel;
these tests drive representative bad inputs through every public layer.
"""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.solvers.cg import pcg
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix
from repro.util.validation import ShapeError

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestSolverFailures:
    def test_pcg_indefinite_matrix_reports_not_converged(self, rng):
        a = synthetic_block_matrix(4, 4, seed=0)
        # flip the sign of one diagonal block: no longer SPD
        a.diag[0] = -a.diag[0]
        b = rng.normal(size=a.n * BS)
        res = pcg(a, b, tol=1e-10, max_iterations=50)
        assert not res.converged

    def test_pcg_wrong_rhs_length(self):
        a = synthetic_block_matrix(4, 4, seed=0)
        with pytest.raises(ShapeError):
            pcg(a, np.ones(7))

    def test_pcg_nan_rhs_does_not_hang(self):
        a = synthetic_block_matrix(4, 4, seed=0)
        b = np.full(a.n * BS, np.nan)
        res = pcg(a, b, max_iterations=10)
        assert not res.converged or not np.isfinite(res.x).all()

    def test_spmv_wrong_vector_length(self):
        a = synthetic_block_matrix(4, 4, seed=0)
        h = HSBCSRMatrix.from_block_matrix(a)
        with pytest.raises(ShapeError):
            hsbcsr_spmv(h, np.ones(5))


class TestGeometryFailures:
    def test_block_with_nan_vertices(self):
        bad = SQ.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            Block(bad)

    def test_block_with_two_vertices(self):
        with pytest.raises(ShapeError):
            Block(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_self_intersecting_polygon_cutter(self):
        # a bow-tie "polygon" has (near-)zero signed area
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1.0]])
        from repro.geometry.polygon import polygon_area

        assert abs(polygon_area(bowtie)) < 1.0  # degenerate, not a crash

    def test_block_matrix_nan_rejected_downstream(self):
        a = synthetic_block_matrix(3, 2, seed=0)
        a.blocks[0, 0, 0] = np.inf
        # matvec carries the inf; pcg must not report convergence
        res = pcg(a, np.ones(a.n * BS), max_iterations=5)
        assert not res.converged


class TestEngineFailures:
    def test_engine_rejects_bad_controls(self):
        from repro.core.state import SimulationControls

        with pytest.raises(ValueError):
            SimulationControls(time_step=-1.0)

    def test_system_index_errors(self):
        s = BlockSystem([Block(SQ)])
        with pytest.raises(IndexError):
            s.fix_point(3, 0.0, 0.0)
        with pytest.raises(IndexError):
            s.add_point_load(-2, 0, 0, 1, 1)

    def test_overlapping_initial_blocks_resolve_not_crash(self):
        # deliberately overlapping blocks: the engine must not crash,
        # blow up, or pull them further together
        from repro.core.state import SimulationControls
        from repro.engine.gpu_engine import GpuEngine

        mat = BlockMaterial(young=1e9)
        s = BlockSystem(
            [Block(SQ, mat), Block(SQ + np.array([0.9, 0.0]), mat)]
        )
        c = SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.05)
        engine = GpuEngine(s, c)
        engine.run(steps=30)
        assert np.isfinite(s.velocities).all()
        gap = s.centroids[1, 0] - s.centroids[0, 0]
        # the blocks barely move (|gap - 0.9| ~ 2e-13, sign set by the
        # solver's summation order): not pulled together beyond rounding
        assert np.isfinite(gap) and gap > 0.9 - 1e-9

    def test_single_fixed_block_is_stable_forever(self):
        from repro.core.state import SimulationControls
        from repro.engine.gpu_engine import GpuEngine

        s = BlockSystem([Block(SQ)])
        s.fix_block(0)
        engine = GpuEngine(
            s, SimulationControls(time_step=1e-3, dynamic=True)
        )
        r = engine.run(steps=100)
        assert r.max_total_displacement() < 1e-4


class TestResilienceFaultInjection:
    """Injected faults exercising the resilience layer end to end."""

    @staticmethod
    def _stacked():
        base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
        mat = BlockMaterial(young=1e9)
        s = BlockSystem(
            [Block(base, mat), Block(SQ + np.array([1.0, 1.0]), mat)]
        )
        s.fix_block(0)
        return s

    @staticmethod
    def _controls(**resilience_kwargs):
        from repro.core.state import ResilienceControls, SimulationControls

        return SimulationControls(
            time_step=1e-3, dynamic=True, max_displacement_ratio=0.05,
            resilience=ResilienceControls(**resilience_kwargs),
        )

    def test_forced_breakdown_triggers_fallback_ladder(self, monkeypatch):
        # a pap <= 0 breakdown on the configured preconditioner must
        # escalate through the ladder instead of burning a dt-halving
        import repro.engine.base as engine_base
        from repro.engine.gpu_engine import GpuEngine
        from repro.solvers.cg import CGResult, pcg as real_pcg

        seen = []

        def breaking(a, b, x0=None, preconditioner=None, **kwargs):
            seen.append((getattr(preconditioner, "name", "none"), x0 is not None))
            if len(seen) == 1:  # first solve: simulate pap <= 0
                return CGResult(x=np.zeros(b.size), iterations=1,
                                converged=False, residuals=[], breakdown=True)
            return real_pcg(a, b, x0=x0, preconditioner=preconditioner,
                            **kwargs)

        monkeypatch.setattr(engine_base, "pcg", breaking)
        engine = GpuEngine(self._stacked(), self._controls())
        result = engine.run(steps=2)
        assert result.steps[0].solver_rung == 1
        assert result.steps[0].retries == 0
        assert seen[0] == ("bj", True)
        assert seen[1] == ("ssor", True)  # the escalation rung

    def test_nan_in_velocities_triggers_rollback(self, monkeypatch):
        from repro.engine.gpu_engine import GpuEngine

        engine = GpuEngine(
            self._stacked(),
            self._controls(checkpoint_every=1, max_rollbacks=2),
        )
        original = engine._update_data
        armed = {"on": True}

        def poison_once(d, dt):
            original(d, dt)
            if armed["on"] and engine.sim_time > 2e-3:
                armed["on"] = False
                engine.system.velocities[1, 1] = np.nan

        monkeypatch.setattr(engine, "_update_data", poison_once)
        result = engine.run(steps=6)
        assert result.failure is None
        assert result.rollbacks == 1
        assert np.isfinite(engine.system.velocities).all()

    def test_corrupted_checkpoint_raises_checkpoint_corrupt(self, tmp_path):
        from planting import corrupt_checkpoint_file

        from repro.core.state import SimulationControls
        from repro.engine.gpu_engine import GpuEngine
        from repro.engine.resilience import CheckpointCorrupt
        from repro.io.model_io import load_checkpoint, save_checkpoint

        engine = GpuEngine(
            self._stacked(),
            SimulationControls(time_step=1e-3, dynamic=True,
                               max_displacement_ratio=0.05),
        )
        engine.run(steps=2)
        path = save_checkpoint(engine.checkpoint(), tmp_path / "cp")

        # flip a payload byte: unreadable or checksum-mismatched either way
        blob = path.read_bytes()
        bad = tmp_path / "cp_bad.npz"
        bad.write_bytes(blob)
        corrupt_checkpoint_file(bad)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(bad)

        # tampered payload behind a stale checksum: digest must catch it
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["velocities"] = arrays["velocities"] + 1.0
        tampered = tmp_path / "cp_tampered.npz"
        np.savez_compressed(tampered, **arrays)
        with pytest.raises(CheckpointCorrupt, match="integrity"):
            load_checkpoint(tampered)

        # truncated write (killed mid-save)
        half = tmp_path / "cp_half.npz"
        half.write_bytes(path.read_bytes()[: len(blob) // 2])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(half)

    def test_wrong_format_file_rejected(self, tmp_path):
        from repro.engine.resilience import CheckpointCorrupt
        from repro.io.model_io import load_checkpoint

        bogus = tmp_path / "bogus.npz"
        np.savez_compressed(bogus, vertices=np.zeros((3, 2)))
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(bogus)


class TestBlockMatrixValidation:
    def test_wrong_block_shape(self):
        with pytest.raises(ShapeError):
            BlockMatrix(
                2, np.zeros((2, 5, 6)),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros((0, 6, 6)),
            )

    def test_mismatched_row_col_lengths(self):
        with pytest.raises(ShapeError):
            BlockMatrix(
                3, np.zeros((3, 6, 6)),
                np.array([0], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                np.zeros((1, 6, 6)),
            )
