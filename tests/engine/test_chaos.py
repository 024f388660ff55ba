"""The retired engine fault registry, fault by fault.

The product once carried its own registry of eight stage faults, an
injector and three run options. Each fault is now planted as the
:mod:`planting` row that replaced it (:data:`RETIRED`), through the
engines' one fault seam, and must still be (a) planted, (b) caught first
by the guard the registry named, and (c) rolled back so the run
completes — never silently absorbed into a wrong-but-plausible
trajectory. A corrupted checkpoint file, the one fault outside a stage,
is planted by :func:`planting.corrupt_checkpoint_file`.
"""

import numpy as np
import pytest
from planting import (
    DROP_ONE_CLOSED,
    PLANTED,
    Planter,
    Row,
    corrupt_checkpoint_file,
    guard_of,
)
from test_integrator import carried_bits

from repro.__main__ import build_parser
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.contracts import STAGES
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.resilience import CheckpointCorrupt
from repro.engine.serial_engine import SerialEngine
from repro.io.model_io import load_checkpoint
from repro.service.cli import build_batch_parser

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)

#: retired fault -> the row that plants it now
RETIRED = {
    "contact_drop": DROP_ONE_CLOSED,
    "contact_duplicate": PLANTED["duplicate_contact"],
    "spring_sign_flip": PLANTED["penalty_sign"],
    "matrix_desymmetrize": PLANTED["symmetry"],
    "matrix_nan": PLANTED["finite_diag"],
    "solution_nan": PLANTED["finite_solution"],
    "solution_inf": Row(
        "equation_solving",
        lambda engine, res: res.x.__setitem__(0, np.inf),
        guard="finite_solution",
    ),
    "halo_corrupt": PLANTED["halo_gather"],
}


def row_guard(row: Row) -> str:
    return row.guard or next(n for n, r in PLANTED.items() if r is row)


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


class SchedulePlanter(Planter):
    """Plants several rows, each once, in order: at each stage visit
    the first pending row of that stage."""

    def __init__(self, engine, rows, *, step):
        super().__init__(engine, rows[0], step=step)
        self.pending = list(rows)

    def perturb(self, stage, payload, *, step, engine):
        if step < self.step:
            return payload
        for row in self.pending:
            if row.stage == stage:
                self.pending.remove(row)
                self.planted.append(step)
                replaced = row.plant(engine, payload)
                return payload if replaced is None else replaced
        return payload


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

def test_registry_well_formed():
    guards = {guard_of(name) for name in PLANTED}
    for fault, row in RETIRED.items():
        assert row.stage in STAGES, fault
        assert row_guard(row) in guards, fault


def test_unknown_fault_rejected():
    """The retired fault options are unknown to both commands."""
    for parser in (build_parser(), build_batch_parser()):
        prefix = [] if parser.prog == "python -m repro" else ["submit"]
        for argv in (["--inject-faults", "7"], ["--fault", "solution_nan"],
                     ["--fault-step", "1"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*prefix, *argv])


# ----------------------------------------------------------------------
# the fault matrix
# ----------------------------------------------------------------------

def _domain2(system, controls):
    """Two-domain decomposed engine (the only engine with a halo)."""
    return DomainEngine(system, controls, n_domains=2)


def _fault_matrix():
    """(fault, engine factory) pairs: halo faults need a DomainEngine."""
    for fault in sorted(RETIRED):
        if RETIRED[fault].stage == "halo_exchange":
            engines = [("DomainEngine2", _domain2)]
        else:
            engines = [
                ("SerialEngine", SerialEngine), ("GpuEngine", GpuEngine)
            ]
        for label, factory in engines:
            yield pytest.param(fault, factory, id=f"{fault}-{label}")


@pytest.mark.parametrize("fault, engine_cls", _fault_matrix())
def test_fault_detected_and_recovered(fault, engine_cls):
    row = RETIRED[fault]
    eng = engine_cls(stacked(), chaos_controls())
    planter = Planter(eng, row, step=1)
    result = eng.run(steps=4)
    # (a) planted: the defect actually landed on a stage output
    assert planter.planted, f"{fault} was never planted in 4 steps"
    # (b) detected, first, by the guard the registry named
    assert sum(result.contract_violations.values()) >= 1, (
        f"{fault} was silently absorbed"
    )
    first = next(w for w in result.warnings if w.guard == "rollback")
    assert f":{row_guard(row)}] " in first.message, first.message
    # (c) recovered: rollback happened and the run still completed
    assert result.rollbacks >= 1
    assert result.failure is None
    assert result.n_steps == 4
    assert np.isfinite(eng.system.vertices).all()


def test_multi_fault_schedule_drains_sequentially():
    # the DomainEngine runs every stage — including halo_exchange — so
    # it is the one engine on which every retired fault can be planted
    eng = _domain2(
        stacked(), chaos_controls(resilience=dict(max_rollbacks=30))
    )
    planter = SchedulePlanter(eng, list(RETIRED.values()), step=1)
    result = eng.run(steps=5)
    assert not planter.pending, f"still pending: {planter.pending}"
    assert len(planter.planted) == len(RETIRED)
    # the halo row plants *inside* the solve whose CGResult the next
    # pending solution row corrupts at the equation_solving boundary,
    # so those two share one detected violation — hence -1.
    assert sum(result.contract_violations.values()) >= len(RETIRED) - 1
    assert result.rollbacks >= len(RETIRED) - 1
    assert result.failure is None
    assert result.n_steps == 5


def test_unrecoverable_without_checkpoints_reports_cleanly():
    """No checkpointing: the violation must surface as a typed failure."""
    eng = GpuEngine(
        stacked(),
        chaos_controls(
            resilience=dict(checkpoint_every=0, on_failure="partial")
        ),
    )
    Planter(eng, RETIRED["matrix_nan"], step=0)
    result = eng.run(steps=3)
    assert result.failure is not None
    assert result.failure.error == "ContractViolation"
    assert "finite_diag" in result.failure.message


def test_injection_is_deterministic():
    def run():
        eng = GpuEngine(stacked(), chaos_controls())
        planter = SchedulePlanter(
            eng, [RETIRED["contact_duplicate"], RETIRED["solution_nan"]],
            step=1,
        )
        result = eng.run(steps=4)
        return planter.planted, eng.system.centroids.copy(), result

    planted_a, centroids_a, result_a = run()
    planted_b, centroids_b, result_b = run()
    assert planted_a == planted_b
    np.testing.assert_array_equal(centroids_a, centroids_b)
    assert result_a.contract_violations == result_b.contract_violations
    assert result_a.rollbacks == result_b.rollbacks


# ----------------------------------------------------------------------
# checkpoint corruption (the non-stage fault)
# ----------------------------------------------------------------------

def _persisted_checkpoint(tmp_path):
    eng = GpuEngine(
        stacked(),
        chaos_controls(
            resilience=dict(checkpoint_dir=str(tmp_path), checkpoint_every=1)
        ),
    )
    eng.run(steps=2)
    files = sorted(tmp_path.glob("checkpoint_*.npz"))
    assert files, "no checkpoint persisted"
    return files[-1]


def test_checkpoint_corruption_detected(tmp_path):
    """A flipped payload byte raises CheckpointCorrupt (the member's
    CRC or the SHA-256 digest no longer matches), never silently wrong
    state."""
    path = _persisted_checkpoint(tmp_path)
    load_checkpoint(path)  # the pristine file loads
    corrupt_checkpoint_file(path)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_every_flip_raises_or_loads_the_original(tmp_path):
    """A sample of single-byte flips anywhere in the file: each raises
    CheckpointCorrupt or (a flip in zip metadata no reader checks)
    loads the original state."""
    path = _persisted_checkpoint(tmp_path)
    original, data = load_checkpoint(path), path.read_bytes()
    flipped = tmp_path / "flipped.npz"
    rng = np.random.default_rng(0)
    for at in rng.choice(len(data), size=min(500, len(data)), replace=False):
        corrupt = bytearray(data)
        corrupt[at] ^= 0xFF
        flipped.write_bytes(bytes(corrupt))
        try:
            loaded = load_checkpoint(flipped)
        except CheckpointCorrupt:
            continue
        assert carried_bits(loaded) == carried_bits(original), f"flip at byte {at}"


def test_corrupt_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        corrupt_checkpoint_file(path)
