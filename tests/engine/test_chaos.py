"""Chaos harness: the fault matrix.

Every fault class in ``FAULT_REGISTRY`` is injected into a live run and
must be (a) actually applied, (b) detected first by the stage contract
its ``detector`` names, and (c) recovered by checkpoint rollback so the
run still completes — never silently absorbed into a wrong-but-plausible
trajectory.
"""

import re

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.chaos import (
    FAULT_REGISTRY,
    FaultInjector,
    InjectedFault,
    corrupt_checkpoint_file,
)
from repro.engine.contracts import STAGES
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.resilience import CheckpointCorrupt
from repro.engine.serial_engine import SerialEngine
from repro.io.model_io import load_checkpoint

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def stacked() -> BlockSystem:
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem([Block(base, MAT), Block(SQ + np.array([1.0, 1.0]), MAT)])
    s.fix_block(0)
    return s


def chaos_controls(**over) -> SimulationControls:
    res = dict(checkpoint_every=1, max_rollbacks=10)
    res.update(over.pop("resilience", {}))
    return SimulationControls(
        time_step=1e-3, dynamic=True, max_displacement_ratio=0.05,
        contract_level="full",
        resilience=ResilienceControls(**res), **over,
    )


# ----------------------------------------------------------------------
# registry hygiene
# ----------------------------------------------------------------------

def test_registry_well_formed():
    assert FAULT_REGISTRY, "registry must not be empty"
    for name, spec in FAULT_REGISTRY.items():
        assert spec.name == name
        assert spec.stage in STAGES
        assert hasattr(FaultInjector(), f"_apply_{name}")


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultInjector(["cosmic_ray"])


# ----------------------------------------------------------------------
# the fault matrix
# ----------------------------------------------------------------------

def _domain2(system, controls, fault_injector=None):
    """Two-domain decomposed engine (the only engine with a halo)."""
    return DomainEngine(
        system, controls, n_domains=2, fault_injector=fault_injector
    )


def _fault_matrix():
    """(fault, engine factory) pairs: halo faults need a DomainEngine."""
    params = []
    for fault in sorted(FAULT_REGISTRY):
        if FAULT_REGISTRY[fault].stage == "halo_exchange":
            engines = [("DomainEngine2", _domain2)]
        else:
            engines = [
                ("SerialEngine", SerialEngine), ("GpuEngine", GpuEngine)
            ]
        params.extend(
            pytest.param(fault, factory, id=f"{fault}-{label}")
            for label, factory in engines
        )
    return params


@pytest.mark.parametrize("fault, engine_cls", _fault_matrix())
def test_fault_detected_and_recovered(fault, engine_cls):
    injector = FaultInjector([fault], seed=3, start_step=1)
    eng = engine_cls(stacked(), chaos_controls(), fault_injector=injector)
    result = eng.run(steps=4)
    # (a) applied: the perturbation actually landed on a stage output
    assert injector.injected, f"{fault} was never applicable in 4 steps"
    rec = injector.injected[0]
    assert rec.name == fault
    assert rec.stage == FAULT_REGISTRY[fault].stage
    # (b) detected, first, by the contract the registry names
    assert sum(result.contract_violations.values()) >= 1, (
        f"{fault} was silently absorbed"
    )
    detector = re.match(r"contracts\.(\w+)", FAULT_REGISTRY[fault].detector)[1]
    first = next(w for w in result.warnings if w.guard == "rollback")
    assert f":{detector}] " in first.message, first.message
    # (c) recovered: rollback happened and the run still completed
    assert result.rollbacks >= 1
    assert result.failure is None
    assert result.n_steps == 4
    assert np.isfinite(eng.system.vertices).all()


def test_multi_fault_schedule_drains_sequentially():
    # the DomainEngine runs every stage — including halo_exchange — so
    # it is the one engine on which the full registry can drain
    injector = FaultInjector(seed=11, start_step=1)  # all faults
    eng = _domain2(
        stacked(),
        chaos_controls(resilience=dict(max_rollbacks=30)),
        fault_injector=injector,
    )
    result = eng.run(steps=5)
    assert injector.exhausted, f"still pending: {injector.pending}"
    names = [f.name for f in injector.injected]
    assert sorted(names) == sorted(FAULT_REGISTRY)
    # halo_corrupt fires *inside* the solve whose CGResult the next
    # pending solution fault perturbs at the equation_solving boundary,
    # so those two injections share one detected violation — hence -1.
    assert sum(result.contract_violations.values()) >= len(FAULT_REGISTRY) - 1
    assert result.rollbacks >= len(FAULT_REGISTRY) - 1
    assert result.failure is None
    assert result.n_steps == 5


def test_unrecoverable_without_checkpoints_reports_cleanly():
    """No checkpointing: the violation must surface as a typed failure."""
    injector = FaultInjector(["matrix_nan"], seed=0, start_step=0)
    eng = GpuEngine(
        stacked(),
        chaos_controls(
            resilience=dict(checkpoint_every=0, on_failure="partial")
        ),
        fault_injector=injector,
    )
    result = eng.run(steps=3)
    assert result.failure is not None
    assert result.failure.error == "ContractViolation"
    assert "finite_diag" in result.failure.message


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_injection_is_deterministic():
    def run():
        injector = FaultInjector(
            ["contact_duplicate", "solution_nan"], seed=42, start_step=1
        )
        eng = GpuEngine(stacked(), chaos_controls(), fault_injector=injector)
        result = eng.run(steps=4)
        return injector.injected, eng.system.centroids.copy(), result

    injected_a, centroids_a, result_a = run()
    injected_b, centroids_b, result_b = run()
    assert injected_a == injected_b
    np.testing.assert_array_equal(centroids_a, centroids_b)
    assert result_a.contract_violations == result_b.contract_violations
    assert result_a.rollbacks == result_b.rollbacks


def test_injected_fault_records_are_frozen():
    rec = InjectedFault("contact_drop", "contact_detection", 3, "x")
    with pytest.raises(AttributeError):
        rec.step = 4


# ----------------------------------------------------------------------
# checkpoint corruption (the non-stage fault)
# ----------------------------------------------------------------------

def test_checkpoint_corruption_detected(tmp_path):
    eng = GpuEngine(
        stacked(),
        chaos_controls(
            resilience=dict(checkpoint_dir=str(tmp_path), checkpoint_every=1)
        ),
    )
    eng.run(steps=2)
    files = sorted(tmp_path.glob("checkpoint_*.npz"))
    assert files, "no checkpoint persisted"
    # the pristine file loads
    load_checkpoint(files[-1])
    corrupt_checkpoint_file(files[-1])
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(files[-1])


def test_corrupt_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        corrupt_checkpoint_file(path)
