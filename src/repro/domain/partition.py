"""Partition blocks across domains via the contact topology.

The block-to-domain assignment :class:`repro.engine.domain_engine
.DomainEngine` runs on: :func:`partition_blocks`.

Two methods are available:

``graph``
    Spectral (Fiedler) ordering of the contact-topology graph — blocks
    are sorted by the second Laplacian eigenvector and split into
    equal-count chunks, which minimises cut edges for mesh-like
    topologies far better than a coordinate sweep. The graph comes
    from a detected contact table when one is supplied (reusing
    :func:`repro.analysis.topology.contact_graph`), else from the
    broad-phase AABB adjacency.
``stripe``
    Equal-count spatial stripes along x — the fallback when the
    contact graph is disconnected (isolated blocks would make the
    Fiedler vector meaningless per component) or too large for the
    dense eigensolve.

``method="auto"`` (the default) picks ``graph`` when the graph is
connected and small enough, else ``stripe``. Everything here is
host-side partition *planning*, executed once per run — the per-step
kernel work stays on the virtual devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockSystem

#: Largest block count for which the dense spectral ordering is used;
#: beyond this, ``auto`` falls back to spatial stripes.
FIEDLER_MAX_BLOCKS = 3000

#: Recognised values of the ``method`` argument.
METHODS = ("auto", "graph", "stripe")


@dataclass(frozen=True)
class PartitionStats:
    """Quality statistics of a block-to-domain partition.

    Attributes
    ----------
    counts:
        Blocks per domain, shape ``(n_domains,)``.
    cut_fraction:
        Fraction of contact-adjacent block pairs that cross a domain
        boundary (ghost-contact overhead).
    imbalance:
        ``max(counts) / mean(counts)``.
    """

    counts: np.ndarray
    cut_fraction: float
    imbalance: float


def adjacency_pairs(
    system: BlockSystem, *, margin: float = 0.0, contacts=None
) -> tuple[np.ndarray, np.ndarray]:
    """Contact-topology edges as two ``(p,)`` block-index arrays.

    With a detected contact table the edges come from
    :func:`repro.analysis.topology.contact_graph`; otherwise from the
    broad-phase AABB overlap test widened by ``margin`` (scalar).
    """
    if contacts is not None and contacts.m:
        from repro.analysis.topology import contact_graph

        g = contact_graph(system, contacts)
        edges = np.asarray(list(g.edges), dtype=np.int64).reshape(-1, 2)
        return edges[:, 0], edges[:, 1]
    from repro.contact.broad_phase import broad_phase_pairs

    return broad_phase_pairs(system.aabbs, margin or 0.0)


def _is_connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the ``n``-node graph with edges ``(i, j)`` is connected:
    a breadth-first sweep from node 0, one frontier per pass."""
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    seen = np.zeros(n, dtype=bool)
    frontier = seen.copy()
    seen[:1] = frontier[:1] = True
    while frontier.any():  # lint: sync-ok[host-graph-build] -- partition planning, once per run
        reached = np.zeros(n, dtype=bool)
        reached[dst[frontier[src]]] = True
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen.all())  # lint: sync-ok[host-graph-build] -- partition planning, once per run


def _fiedler_order(
    n: int, i: np.ndarray, j: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Spectral ordering of a connected graph: ``(n,)`` permutation.

    Sorts nodes by the Fiedler vector (second eigenvector of the graph
    Laplacian), tie-broken by the x coordinate then node index so the
    ordering is fully deterministic. Dense ``eigh`` — callers gate on
    :data:`FIEDLER_MAX_BLOCKS`.
    """
    if n < 2:
        return np.arange(n, dtype=np.int64)
    weights = np.zeros((n, n), dtype=np.float64)
    weights[i, j] = 1.0
    weights[j, i] = 1.0
    degree = weights.sum(axis=1)
    laplacian = np.diag(degree) - weights
    _, vecs = np.linalg.eigh(laplacian)
    fiedler = vecs[:, 1]
    # deterministic sign: the largest-magnitude entry is made positive
    k = np.argmax(np.abs(fiedler))
    fiedler = fiedler * np.where(fiedler[k] >= 0.0, 1.0, -1.0)
    return np.lexsort((np.arange(n, dtype=np.int64), x, fiedler))


def _labels_from_order(order: np.ndarray, n_domains: int) -> np.ndarray:
    """Equal-count chunk labels: ``(n_blocks,)`` int64 from an order."""
    out = np.empty(order.size, dtype=np.int64)
    for d, chunk in enumerate(np.array_split(order, n_domains)):
        out[chunk] = d
    return out


def partition_stats(
    labels: np.ndarray,
    n_domains: int,
    i: np.ndarray,
    j: np.ndarray,
) -> PartitionStats:
    """Quality statistics (scalar fields) of ``(n_blocks,)`` labels.

    ``i``/``j`` are the ``(p,)`` contact-adjacency edges the cut is
    measured over.
    """
    counts = np.bincount(labels, minlength=n_domains)
    # host-side partition-planning statistics, computed once per run
    if i.size:
        cut = float(np.count_nonzero(labels[i] != labels[j])) / i.size  # lint: sync-ok[partition-stats] -- scalar partition statistic
    else:
        cut = 0.0
    imbalance = float(counts.max()) / max(1.0, float(counts.mean()))  # lint: sync-ok[partition-stats] -- scalar partition statistic
    return PartitionStats(counts, cut, imbalance)


def partition_blocks(
    system: BlockSystem,
    n_domains: int,
    *,
    margin: float = 0.0,
    method: str = "auto",
    contacts=None,
) -> tuple[np.ndarray, PartitionStats]:
    """Partition blocks across ``n_domains`` devices.

    Returns the ``(n_blocks,)`` int64 domain labels and the
    :class:`PartitionStats`. Deterministic for a fixed system: the
    spectral path tie-breaks by coordinate and index, the stripe path
    is a stable coordinate sort.
    """
    if n_domains < 1:
        raise ValueError(f"n_domains must be >= 1, got {n_domains}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    n = system.n_blocks
    x = system.centroids[:, 0]
    i, j = adjacency_pairs(system, margin=margin, contacts=contacts)
    chosen = method
    if method == "auto":
        usable = (
            n_domains > 1
            and n <= FIEDLER_MAX_BLOCKS
            and _is_connected(n, i, j)
        )
        chosen = "graph" if usable else "stripe"
    if chosen == "graph":
        order = _fiedler_order(n, i, j, x)
    else:
        order = np.argsort(x, kind="stable")
    labels = _labels_from_order(order, n_domains)
    return labels, partition_stats(labels, n_domains, i, j)
