"""Deterministic content hashing for declarative job specs.

The batch service keys its result cache on the *content* of a
:class:`~repro.service.spec.JobSpec`: two processes serialising the same
spec must produce byte-identical JSON, so the canonical form pins key
order, strips insignificant whitespace, and rejects NaN/Infinity (whose
textual form is not portable JSON).
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj) -> str:
    """Serialise ``obj`` to canonical JSON (sorted keys, no whitespace).

    The output is stable across processes and platforms for any
    JSON-representable value; non-finite floats raise ``ValueError``
    instead of emitting the non-standard ``NaN``/``Infinity`` tokens.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_hash(obj) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()

