"""ASCII rendering of block systems.

The paper's Figs. 11–13 are pictures of block states. In a terminal-only
environment, a coarse character raster is the honest equivalent: each
block's polygon is rasterised into a character grid, with a distinct
glyph per block (cycled). Used by the examples and the state benches to
*show* the initial/final slope and the falling-rock motion.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockSystem
from repro.geometry.polygon import point_in_polygon

#: Glyph cycle for block interiors.
GLYPHS = "#%@*+=oxsb"


def render_system(
    system: BlockSystem,
    *,
    width: int = 78,
    height: int = 24,
    bounds: np.ndarray | None = None,
    highlight: set[int] | None = None,
) -> str:
    """Render the block system to a character raster.

    Parameters
    ----------
    width, height:
        Raster size in characters (a character cell is ~2x taller than
        wide; the aspect is compensated).
    bounds:
        ``[xmin, ymin, xmax, ymax]`` view window; the system's bounding
        box (5 % padded) if omitted.
    highlight:
        Block indices drawn with ``'!'`` regardless of the glyph cycle
        (e.g. the fastest-moving rocks).

    Returns
    -------
    str
        ``height`` lines of ``width`` characters, top row = highest y.
    """
    if bounds is None:
        lo = system.vertices.min(axis=0)
        hi = system.vertices.max(axis=0)
        pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        bounds = np.array([lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad])
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError(f"invalid bounds {bounds}")
    xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
    ys = ymin + (np.arange(height) + 0.5) * (ymax - ymin) / height
    gx, gy = np.meshgrid(xs, ys)
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)

    raster = np.full(width * height, " ", dtype="<U1")
    for b in range(system.n_blocks):
        box = system.aabbs[b]
        sel = (
            (cells[:, 0] >= box[0]) & (cells[:, 0] <= box[2])
            & (cells[:, 1] >= box[1]) & (cells[:, 1] <= box[3])
        )
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        inside = point_in_polygon(system.block_vertices(b), cells[idx])
        glyph = (
            "!" if highlight and b in highlight else GLYPHS[b % len(GLYPHS)]
        )
        raster[idx[inside]] = glyph
    rows = raster.reshape(height, width)
    return "\n".join("".join(row) for row in rows[::-1])

