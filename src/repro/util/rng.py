"""Deterministic random-number-generator construction.

Every stochastic component of the package (workload generators, property
tests, synthetic matrices) takes a seed and builds its generator through
:func:`make_rng` so that runs are exactly reproducible; components that
fan one seed out into independent streams derive the child seeds with
:func:`derive_seed`.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy. Components should pass generators downward so a
    single top-level seed controls an entire experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Used when a workload generator hands independent streams to sub-tasks
    (e.g. per-joint-set perturbations) so adding a joint set never perturbs
    the randomness of the others.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def derive_seed(seed: int, *tokens) -> int:
    """Derive a stable child seed from a root seed and string tokens.

    The service's fault injectors (:mod:`repro.service.chaos`), the soak
    driver, the retrying client and the retry-policy jitter all fan one
    user-facing seed out into independent per-component streams through
    this function, so two runs with equal configuration draw identically
    while components never share a stream. SHA-256-based, so it is
    stable across processes and Python versions (unlike ``hash``).
    """
    payload = repr((int(seed), tuple(str(t) for t in tokens)))
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "little")
