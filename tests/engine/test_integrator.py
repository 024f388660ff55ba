"""The promises of the integrator unit, the first section of
``repro.engine.physics``.

* A rejected attempt writes none of the carried state, so loop 2 has
  nothing to restore before its retry.
* ``Checkpoint`` and the checkpoint file hold exactly
  :data:`~repro.engine.physics.CARRIED`: a run resumed from a
  persisted checkpoint in a fresh engine matches the uninterrupted run
  bit for bit, also from a file in the older layout that carried a
  ``c_shear_disp`` member.
* Kinetic energy is the full ``½ vᵀ M v``.
"""

import dataclasses

import numpy as np
import pytest
from test_ledger_golden import _model

from repro.assembly.submatrices import mass_integral_matrix
from repro.core.state import ResilienceControls
from repro.engine.gpu_engine import GpuEngine
from repro.engine.physics import CARRIED, Checkpoint, kinetic_energy
from repro.io.model_io import _checkpoint_digest, load_checkpoint


def _bits(value):
    a = np.ascontiguousarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def carried_bits(cp: Checkpoint) -> list:
    """Every carried value of ``cp`` as ``(dtype, shape, bytes)``."""
    out = []
    for c in CARRIED:
        value = getattr(cp, c.name)
        if c.metadata["kind"] == "contacts":
            out += [
                _bits(getattr(value, f.name)) for f in dataclasses.fields(value)
            ]
        else:
            out.append(_bits(value))
    return out


class _Watched(GpuEngine):
    """Captures the carried state around every rejected attempt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.around_rejections: list[tuple[list, list]] = []

    def _attempt(self, retry, times, detected):
        before = carried_bits(self.checkpoint())
        attempt, trial = super()._attempt(retry, times, detected)
        if attempt.cause is not None:
            self.around_rejections.append(
                (before, carried_bits(self.checkpoint()))
            )
        return attempt, trial


@pytest.mark.parametrize("dynamic", [False, True])
def test_rejected_attempt_leaves_the_carried_state(dynamic):
    """On the 117-block slope, which takes loop-2 retries after its
    first accepted step too, a rejected attempt leaves vertices,
    velocities, stresses, the previous solution and the contact table
    bit-equal."""
    system, controls, steps = _model("slope")
    engine = _Watched(system, dataclasses.replace(controls, dynamic=dynamic))
    result = engine.run(steps=steps)
    assert max(a.step for a in result.rejected) >= 1
    assert len(engine.around_rejections) == len(result.rejected)
    for before, after in engine.around_rejections:
        assert before == after


def _rocks(**resilience):
    system, controls, _ = _model("rocks")
    controls = dataclasses.replace(
        controls, resilience=ResilienceControls(**resilience)
    )
    return GpuEngine(system, controls)


def older_layout(path, tmp_path):
    """The checkpoint at ``path`` as files were written while contacts
    kept a shear displacement: one more, all-zero, contact column."""
    with np.load(path) as data:
        header_json = str(data["__header__"])
        arrays = {k: data[k] for k in data.files if not k.startswith("__")}
    arrays["c_shear_disp"] = np.zeros(arrays["c_block_i"].shape[0])
    older = tmp_path / "older.npz"
    np.savez_compressed(
        older, __header__=np.array(header_json),
        __checksum__=np.array(_checkpoint_digest(header_json, arrays)),
        **arrays,
    )
    return older


def test_resume_from_a_persisted_checkpoint_in_a_fresh_engine(tmp_path):
    """26-block rocks, dynamic: 40 steps, a checkpoint file, 40 more in
    a new engine — bit-equal to 80 uninterrupted steps, from either
    file layout, and the resumed steps' records are the uninterrupted
    run's last 40, step numbers included."""
    whole = _rocks()
    tail = whole.run(steps=80).steps[40:]
    _rocks(checkpoint_every=40, checkpoint_dir=str(tmp_path)).run(steps=40)
    path = tmp_path / "checkpoint_00000040.npz"
    for source in (path, older_layout(path, tmp_path)):
        resumed = _rocks()
        resumed.restore_checkpoint(load_checkpoint(source))
        assert resumed.run(steps=40).steps == tail
        assert carried_bits(resumed.checkpoint()) == carried_bits(
            whole.checkpoint()
        )


def test_kinetic_energy_is_the_full_quadratic_form():
    """Equal to the per-block ``½ vᵀ M v`` over exact polygon mass
    matrices, rotation and strain rates included."""
    system, _, _ = _model("rocks")
    rng = np.random.default_rng(0)
    system.velocities = rng.normal(size=system.velocities.shape)
    expected = 0.0
    for i in range(system.n_blocks):
        m = system.material_of(i).density * mass_integral_matrix(
            system.areas[i], system.moments[i]
        )
        v = system.velocities[i]
        expected += 0.5 * float(v @ m @ v)
    assert kinetic_energy(system) == pytest.approx(expected, rel=1e-12)
    system.velocities[:, :2] = 0.0  # spin and strain rates alone
    assert kinetic_energy(system) > 0.0
