"""Contact detection: broad phase, narrow phase, transfer, initialisation.

The paper's contact-detection module has four parts (Section III.B):

* **broad phase** — every block pair's AABB overlap test, mapped on the
  GPU to an ``n x (n/2)`` full matrix (instead of the serial upper
  triangle) for load balance, with sub-matrix tiling through shared memory;
* **narrow phase** — distance judgment (vertex–edge distances below the
  contact threshold) then angle judgment, classifying survivors into
  VE / VV1 / VV2 (the paper's first and second data classifications);
* **contact transfer** — carry state (open/slide/lock, shear memory, edge
  ratio) from the previous step's contacts via sorted search;
* **contact initialisation** — per-kind parameter setup, run either as
  uniform per-category kernels (classified) or as one divergent kernel
  (the ablation baseline of the paper's Nsight measurement).

An engine keeps the broad phase's pairs, the narrow phase's culled rows,
the kind split and the transfer sort across steps (:mod:`repro.contact.skin`);
every table and every priced launch is a fresh detection's.
"""

from repro.contact.contact_set import ContactSet, VE, VV1, VV2
from repro.contact.broad_phase import (
    broad_phase_pairs,
    gpu_pair_mapping,
)
from repro.contact.narrow_phase import narrow_phase
from repro.contact.transfer import transfer_contacts
from repro.contact.initialization import (
    initialize_contacts_classified,
    initialize_contacts_unclassified,
)

__all__ = [
    "ContactSet",
    "VE",
    "VV1",
    "VV2",
    "broad_phase_pairs",
    "gpu_pair_mapping",
    "narrow_phase",
    "transfer_contacts",
    "initialize_contacts_classified",
    "initialize_contacts_unclassified",
]
