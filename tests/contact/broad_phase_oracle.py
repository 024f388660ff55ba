"""Reference implementation the broad-phase tests compare against.

:func:`broad_phase_pairs_python` is the serial double loop over the
strict upper triangle of the pair matrix — the serial pipeline's
original broad phase. No engine runs it (the serial preset calls the
vectorised kernel and sorts the pairs into this loop's lexicographic
order); it is kept as the independent implementation the vectorised
broad phase is verified against.
"""

import numpy as np


def broad_phase_pairs_python(aabbs, margin):
    """Overlapping pairs ``(i, j)``, ``i < j``, of ``(n, 4)`` boxes as two
    1-D int64 arrays in lexicographic order."""
    n = aabbs.shape[0]
    out_i, out_j = [], []
    for i in range(n):
        xi0, yi0, xi1, yi1 = aabbs[i]
        for j in range(i + 1, n):
            xj0, yj0, xj1, yj1 = aabbs[j]
            if (
                xi0 <= xj1 + margin
                and xj0 <= xi1 + margin
                and yi0 <= yj1 + margin
                and yj0 <= yi1 + margin
            ):
                out_i.append(i)
                out_j.append(j)
    return (
        np.asarray(out_i, dtype=np.int64),
        np.asarray(out_j, dtype=np.int64),
    )
