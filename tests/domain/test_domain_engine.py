"""DomainEngine: the executable multi-device path.

The acceptance pin: a seeded, dtype-pinned run is **bit-identical** to
the single-device serial engine at every domain count.
"""

import numpy as np
import pytest

from repro.core.state import SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import build_brick_wall

STEPS = 3


def controls() -> SimulationControls:
    return SimulationControls(time_step=1e-3, dynamic=True)


def run(engine_cls, **kw):
    system = build_brick_wall(3, 4)
    eng = engine_cls(system, controls(), **kw)
    result = eng.run(steps=STEPS)
    return eng, result


class TestBitIdenticalPin:
    # 14 blocks: at 20 domains six of them own nothing
    @pytest.mark.parametrize("n_domains", [1, 2, 4, 8, 20])
    def test_identical_to_serial_engine(self, n_domains):
        serial, ref = run(SerialEngine)
        domain, res = run(DomainEngine, n_domains=n_domains)
        np.testing.assert_array_equal(
            domain.system.vertices, serial.system.vertices
        )
        np.testing.assert_array_equal(
            domain.system.velocities, serial.system.velocities
        )
        np.testing.assert_array_equal(
            domain.system.centroids, serial.system.centroids
        )
        assert res.total_cg_iterations == ref.total_cg_iterations
        assert res.n_steps == ref.n_steps == STEPS

    def test_stripe_partition_also_identical(self, monkeypatch):
        # the engine's partition takes the spectral order on this
        # connected wall: plant equal-count x stripes in its place
        import repro.domain
        from repro.domain.partition import _labels_from_order, partition_stats

        calls = []

        def stripe(system, n_domains, *, margin):
            calls.append(margin)
            order = np.argsort(system.centroids[:, 0], kind="stable")
            labels = _labels_from_order(order, n_domains)
            empty = np.empty(0, dtype=np.int64)
            return labels, partition_stats(labels, n_domains, empty, empty)

        monkeypatch.setattr(repro.domain, "partition_blocks", stripe)
        serial, _ = run(SerialEngine)
        domain, _ = run(DomainEngine, n_domains=2)
        assert calls == [domain.contact_threshold]
        # the planted split is not the one the engine would have chosen
        assert not np.array_equal(
            domain.labels,
            repro.domain.partition.partition_blocks(
                domain.system, 2, margin=domain.contact_threshold
            )[0],
        )
        np.testing.assert_array_equal(
            domain.system.vertices, serial.system.vertices
        )

    def test_domain_runs_deterministic_across_calls(self):
        a, res_a = run(DomainEngine, n_domains=2)
        b, res_b = run(DomainEngine, n_domains=2)
        np.testing.assert_array_equal(a.system.vertices, b.system.vertices)
        assert res_a.total_cg_iterations == res_b.total_cg_iterations
        assert a.halo_bytes == b.halo_bytes


class TestSplitKeptAcrossSolves:
    """The exchange plan, exchanger and split live as long as the
    sparsity pattern: built once per run of equal ``(rows, cols)``, never
    once per solve."""

    @staticmethod
    def counting(monkeypatch):
        from repro.engine import domain_engine

        built = []
        build = domain_engine.build_exchange_plan

        def counted(dmap, rows, cols):
            built.append((rows.tobytes(), cols.tobytes()))
            return build(dmap, rows, cols)

        monkeypatch.setattr(domain_engine, "build_exchange_plan", counted)
        return built

    def test_one_plan_per_pattern_on_a_slope_step(self, monkeypatch):
        from repro import build_slope_model

        built = self.counting(monkeypatch)
        eng = DomainEngine(
            build_slope_model(joint_spacing=8.0, seed=0),
            SimulationControls(
                time_step=2e-3, dynamic=False, gravity=9.81,
                penalty_scale=50.0, preconditioner="bj",
            ),
            n_domains=4,
        )
        presented = []
        solver_operand = eng._solver_operand

        def recording(matrix):
            presented.append((matrix.rows.tobytes(), matrix.cols.tobytes()))
            return solver_operand(matrix)

        monkeypatch.setattr(eng, "_solver_operand", recording)
        eng.run(steps=1)
        assert len(presented) > 20  # a step is dozens of solves ...
        changes = [
            new for old, new in zip([None, *presented], presented)
            if new != old
        ]
        assert built == changes  # ... and one plan per pattern they show
        assert len(built) == len(set(presented)) < len(presented) / 20

    def test_a_changed_pattern_is_never_multiplied_through_a_kept_split(
        self, monkeypatch
    ):
        from repro.assembly.global_matrix import BS, BlockMatrix
        from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
        from repro.spmv.synthetic import synthetic_block_matrix

        built = self.counting(monkeypatch)
        eng = DomainEngine(build_brick_wall(3, 4), controls(), n_domains=4)
        n = eng.system.n_blocks
        a = synthetic_block_matrix(n, 30, seed=1)
        keep = np.arange(30) != 7
        dropped = BlockMatrix(
            n=n, diag=a.diag, rows=a.rows[keep], cols=a.cols[keep],
            blocks=a.blocks[keep],
        )
        revalued = BlockMatrix(
            n=n, diag=2.0 * a.diag, rows=a.rows.copy(), cols=a.cols.copy(),
            blocks=-a.blocks,
        )
        x = np.random.default_rng(0).normal(size=n * BS)
        plans = []
        for matrix, n_built in (
            (a, 1), (revalued, 1), (a, 1),   # sweeps: values only
            (dropped, 2),                    # a contact pair opened
            (a, 3), (revalued, 3),           # a rollback brought it back
        ):
            operand = eng._solver_operand(matrix)
            assert len(built) == n_built
            assert operand.split.matrix is matrix
            np.testing.assert_array_equal(
                operand.matvec(x),
                hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(matrix), x),
            )
            plans.append(operand.split.plan)
        assert plans[0] is plans[1] is plans[2]
        assert plans[4] is plans[5] is not plans[0]


class TestObservability:
    def test_halo_bytes_metered(self):
        eng, _ = run(DomainEngine, n_domains=2)
        assert eng.halo_bytes > 0
        single, _ = run(DomainEngine, n_domains=1)
        assert single.halo_bytes == 0.0

    def test_partition_gauges_published(self):
        eng, _ = run(DomainEngine, n_domains=2)
        assert eng.metrics.gauge("domain.imbalance").value >= 1.0
        assert 0.0 <= eng.metrics.gauge("domain.cut_fraction").value <= 1.0
        # contacts whose two blocks live on different domains
        contacts = eng._contacts
        crossing = sum(
            eng.labels[i] != eng.labels[j]
            for i, j in zip(contacts.block_i, contacts.block_j)
        )
        assert crossing >= 1
        assert eng.metrics.gauge("domain.cut_contacts").value == crossing

    def test_domain_device_times(self):
        eng, _ = run(DomainEngine, n_domains=3)
        times = eng.domain_device_times()
        assert len(times) == 3
        assert all(t > 0.0 for t in times)

    def test_partition_stats_exposed(self):
        eng, _ = run(DomainEngine, n_domains=2)
        assert eng.partition_stats.counts.sum() == eng.system.n_blocks
        assert eng.labels.shape == (eng.system.n_blocks,)


class TestRunnerIntegration:
    def test_make_engine_builds_domain_engine(self):
        from types import SimpleNamespace

        from repro.engine.runner import make_engine

        spec = SimpleNamespace(engine="domain", profile="k40", n_domains=3)
        system = build_brick_wall(2, 3)
        eng = make_engine(spec, system, controls())
        assert isinstance(eng, DomainEngine)
        assert eng.n_domains == 3
