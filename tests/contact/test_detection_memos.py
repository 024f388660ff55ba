"""Detection's memos reuse only what their gate compares.

:class:`repro.contact.skin.KeptCandidates` keeps two
:class:`~repro.gpu.kernel.KeptLaunches` across steps: the kind split's
permutation (:func:`~repro.contact.narrow_phase.kind_split`) and the
transfer sort's priced launches
(:func:`~repro.contact.transfer.transfer_contacts`). Each gate compares
exactly what its result and pricing read — the labels; the minor block
numbers and the key bits — and the device and its region. Here each
memo hits on a repeat, and a changed array of the same length, another
region or another device misses and prices like a fresh device. A
planted gate that compares lengths only, or ignores the region, fails
both checks.
"""

import numpy as np
import pytest
from test_transfer import NV, records, transfer_tables

from repro.contact.narrow_phase import kind_split
from repro.contact.transfer import transfer_contacts
from repro.core.materials import JointMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.gpu.device import K40
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.meshing.slope_models import build_falling_rocks_model
from repro.obs.metrics import Counter
from repro.primitives.compact import partition_by_label


def priced_fresh(work, region):
    """``(result, records)`` of ``work(device, kept)`` on a fresh device
    and a fresh memo, inside ``region``."""
    device = VirtualDevice(K40)
    with device.region(region):
        out = work(device, KeptLaunches())
    return out, records(device)


def check_gate(work, changed, same=np.array_equal):
    """Drive one memo through a miss, a hit, a changed input of the same
    length, another region and another device. ``work(device, kept,
    changed=False)`` runs the memoised work; each call must return what
    a fresh device and memo return and record what they record."""
    counter = Counter()
    kept, device = KeptLaunches(counter), VirtualDevice(K40)
    calls = [
        (device, "contact_detection", False, 0),  # the first: a miss
        (device, "contact_detection", False, 1),  # a repeat: a hit
        (device, "contact_detection", True, 1),  # changed: a miss
        (device, "contact_detection", True, 2),  # repeat of that: a hit
        (device, "other", True, 2),  # another region: a miss
        (VirtualDevice(K40), "other", True, 2),  # another device: a miss
    ]
    for dev, region, change, hits in calls:
        start = len(dev.records)
        with dev.region(region):
            got = work(dev, kept, change)
        want, fresh = priced_fresh(lambda d, k: work(d, k, change), region)
        assert same(got, want)
        assert records(dev)[start:] == fresh
        assert counter.value == hits
    assert changed(work)


# ----------------------------------------------------------------------
# the kind split
# ----------------------------------------------------------------------
LABELS = np.random.default_rng(0).integers(0, 3, 300)
RELABELLED = LABELS.copy()
RELABELLED[np.flatnonzero(LABELS == 0)[:5]] = 2  # same length, new split


def split_work(device, kept, changed=False):
    return kind_split(RELABELLED if changed else LABELS, device, kept)


def split_changed(work):
    return not np.array_equal(work(None, None), work(None, None, True))


def test_kind_split_gate():
    check_gate(split_work, split_changed)
    perm, _ = partition_by_label(LABELS, 3)
    np.testing.assert_array_equal(split_work(None, KeptLaunches()), perm)


# ----------------------------------------------------------------------
# the transfer sort
# ----------------------------------------------------------------------
PREVIOUS, CURRENT = transfer_tables("overlap", 3, 200)
MOVED = CURRENT.copy()
MOVED.block_i += 300  # same length; more key bits, another pass
MOVED.block_j += 300


def transfer_work(device, kept, changed=False):
    current = MOVED if changed else CURRENT
    return transfer_contacts(PREVIOUS, current, NV, device, kept=kept)


def same_table(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("state", "prev_state", "ratio", "shear_sign",
                     "normal_disp", "block_i", "vertex_idx")
    )


def transfer_changed(work):
    return records(_priced(work, False)) != records(_priced(work, True))


def _priced(work, changed):
    device = VirtualDevice(K40)
    work(device, KeptLaunches(), changed)
    return device


def test_transfer_sort_gate():
    check_gate(transfer_work, transfer_changed, same_table)


# ----------------------------------------------------------------------
# planted gates fail both checks
# ----------------------------------------------------------------------
def length_only(self, device, key):
    kept, region, _ = self.where
    return bool(
        self.key and device is kept
        and getattr(device, "_region_stack", [])[-1:] == region
        and [np.shape(a) for a in key] == [np.shape(b) for b in self.key]
    )


def region_blind(self, device, key):
    kept, _, _ = self.where
    return bool(
        self.key and device is kept
        and all(np.array_equal(a, b) for a, b in zip(key, self.key))
    )


@pytest.mark.parametrize("planted", [length_only, region_blind])
@pytest.mark.parametrize(
    "check",
    [lambda: check_gate(split_work, split_changed),
     lambda: check_gate(transfer_work, transfer_changed, same_table)],
    ids=["kind_split", "transfer_sort"],
)
def test_a_planted_gate_fails(monkeypatch, planted, check):
    monkeypatch.setattr(KeptLaunches, "holds", planted)
    with pytest.raises(AssertionError):
        check()


# ----------------------------------------------------------------------
# the engines' memos hit and stay small
# ----------------------------------------------------------------------
def test_rocks_memos_hit_and_keep_twelve_bytes_a_contact():
    """On the 802-block rocks both memos hit from the step after the
    first they can, and hold 12 bytes per contact row (int32 labels,
    int32 permutation, int32 minor block numbers): under 256 KiB."""
    engine = GpuEngine(
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=20, n_rock_cols=40,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
    )
    engine.run(steps=3)
    kept = engine._candidates
    counters = engine.metrics.snapshot()["counters"]
    assert counters["contact.detection_reuse"] == 2 + 1  # split, transfer
    m = engine._contacts.m
    held = [*kept.split.key, kept.split.value, kept.transfer.key[0]]
    assert [a.dtype for a in held] == [np.int32, np.int32, np.int32]
    assert all(a.shape == (m,) for a in held)
    assert sum(a.nbytes for a in held) == 12 * m < 256 * 2**10
