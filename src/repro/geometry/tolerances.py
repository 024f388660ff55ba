"""Scale-relative geometric tolerances.

Every geometric predicate in the pipeline needs an epsilon somewhere —
"is this edge degenerate", "are these segments parallel", "is this area
zero". Absolute constants silently assume metre-scale models: a
millimetre-scale block has edge lengths around ``1e-3`` and areas around
``1e-6``, so an absolute ``1e-9`` area cut-off is six orders of magnitude
looser (relatively) than for a kilometre-scale model, where the same
constant is absurdly strict. :class:`Tolerances` derives every epsilon
from one *length scale* — by convention the model bounding-box diagonal —
so millimetre- and kilometre-scale models behave identically.

Dimensional conventions:

* ``eps_length`` — compares lengths (``rel * length_scale``);
* ``eps_area`` — compares areas (``rel * length_scale ** 2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default relative tolerance (dimensionless).
DEFAULT_REL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Scale-relative epsilons derived from one model length scale.

    Attributes
    ----------
    length_scale:
        Characteristic length of the model, conventionally the bounding-
        box diagonal (see :meth:`from_points`). Must be positive.
    rel:
        Relative tolerance all epsilons are multiples of.
    """

    length_scale: float = 1.0
    rel: float = DEFAULT_REL

    def __post_init__(self) -> None:
        if not (np.isfinite(self.length_scale) and self.length_scale > 0.0):
            raise ValueError(
                f"length_scale must be finite and > 0, got {self.length_scale}"
            )
        if not (np.isfinite(self.rel) and 0.0 < self.rel < 1.0):
            raise ValueError(f"rel must be in (0, 1), got {self.rel}")

    # ------------------------------------------------------------------
    @property
    def eps_length(self) -> float:
        """Lengths below this are "zero" [model length units]."""
        return self.rel * self.length_scale

    @property
    def eps_area(self) -> float:
        """Areas below this are "zero" [length units squared]."""
        return self.rel * self.length_scale**2

    def scaled(self, factor: float) -> "Tolerances":
        """The same relative tolerance at ``factor`` times the length scale."""
        return Tolerances(self.length_scale * factor, self.rel)

    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, points: np.ndarray, rel: float = DEFAULT_REL
    ) -> "Tolerances":
        """Tolerances scaled to the bounding-box diagonal of ``points``.

        ``points`` is any ``(..., d)`` coordinate array. Degenerate
        inputs (empty, a single repeated point) fall back to the largest
        coordinate magnitude, and finally to ``1.0``, so the result is
        always usable.
        """
        coords = np.asarray(points, dtype=np.float64)
        if coords.ndim == 0 or coords.size == 0:
            return cls(1.0, rel)
        coords = coords.reshape(-1, coords.shape[-1])
        good = coords[np.isfinite(coords).all(axis=1)]
        if good.shape[0] == 0:  # lint: sync-ok[setup] -- one-time host-side tolerance derivation
            return cls(1.0, rel)
        return cls(bbox_diagonal(good.max(axis=0) - good.min(axis=0), good), rel)

    @classmethod
    def from_segments(
        cls, segments: np.ndarray, rel: float = DEFAULT_REL
    ) -> "Tolerances":
        """Tolerances scaled to the extent of ``(n, 4)`` segment rows."""
        segs = np.asarray(segments, dtype=np.float64).reshape(-1, 4)
        return cls.from_points(segs.reshape(-1, 2), rel)


def bbox_diagonal(span: np.ndarray, points: np.ndarray) -> float:
    """Diagonal of the box ``span`` of finite ``points``, as in ``from_points``."""
    diag = float(np.sqrt(np.sum(span * span)))
    if not (np.isfinite(diag) and diag > 0.0):
        diag = float(np.max(np.abs(points)))  # lint: sync-ok[setup] -- one-time host-side tolerance derivation
    if not (np.isfinite(diag) and diag > 0.0):
        diag = 1.0
    return diag
