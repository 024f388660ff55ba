"""GPU data-parallel primitives.

The paper combines its pipeline stages with scan and radix-sort primitives
(Merrill & Grimshaw) whose reductions use Kepler warp-shuffle instructions,
plus stream compaction (classify/abandon contact data), segmented reduction
(sub-matrix assembly, Fig. 4) and sorted search (contact transfer).

Each primitive here performs the *real* computation with NumPy and, when
given a :class:`~repro.gpu.kernel.VirtualDevice`, records the modelled work
of the corresponding CUDA implementation (launch structure, memory traffic,
scatter coalescing) into the device ledger.
"""

from repro.primitives.scan import exclusive_scan
from repro.primitives.radix_sort import radix_sort_pairs
from repro.primitives.reduce import segmented_reduce
from repro.primitives.compact import stream_compact, partition_by_label
from repro.primitives.sorted_search import sorted_search
from repro.primitives.scatter import (
    scatter_add,
    segment_max,
    segment_min,
    segment_sum,
)

__all__ = [
    "exclusive_scan",
    "radix_sort_pairs",
    "segmented_reduce",
    "stream_compact",
    "partition_by_label",
    "sorted_search",
    "scatter_add",
    "segment_sum",
    "segment_min",
    "segment_max",
]
