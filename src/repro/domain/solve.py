"""Distributed preconditioned CG across domains.

:func:`distributed_pcg` mirrors :func:`repro.solvers.cg.pcg` statement
for statement — same early returns, same breakdown test, same residual
series — with three distributed substitutions:

* the SpMV is the per-domain :func:`repro.domain.assembly.domain_spmv`
  preceded by one ghost (halo) exchange, its owned rows gathered back
  in canonical block order;
* every scalar reduction (the two CG dot products and the residual
  norm) is computed as an *ordered* reduction over the canonical
  global vector — the deterministic all-reduce — and metered as a
  latency-bound ``pcie_allreduce`` on every device;
* vector updates are metered per domain at their local lengths.

Every launch an iteration charges has a size fixed by the split and the
exchange plan, so each is priced once (:meth:`VirtualDevice.price` — at
the exchanger's, the preconditioner's or the solve's construction, the
SpMV's on its first charge) and the loop only records the shared
records: same ledger, record for record, without per-iteration pricing.

Because the canonical-order reductions see bit-identical operand
arrays and the distributed SpMV is bit-identical on owned rows, the
whole iteration — and therefore the returned solution, iteration
count, and residual series — equals the single-device solve exactly
for the block-local preconditioners (``none``/``jacobi``/``bj``) and
for the gathered cross-domain ones (``ssor``/``ilu``/``neumann``).

Two genuinely domain-decomposed preconditioners are additionally
available for iteration-count studies (they change the iteration, so
they are opt-in, never the bit-identical default):

``domain_bj``
    Block-Jacobi across domains — exact solve of each domain's
    owned x owned submatrix, no communication in the application.
``schwarz``
    Overlapping additive Schwarz (restricted variant) — exact solve of
    each domain's owned+ghost extended submatrix, one extra halo
    exchange per application.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import domain_spmv
from repro.domain.halo import HaloExchanger
from repro.solvers.cg import CGResult, _observe, _vector_ops_counters
from repro.solvers.preconditioners import make_preconditioner
from repro.util.validation import check_array

#: Preconditioners whose application is block-local, hence identical
#: per domain: distributing them costs no communication.
BLOCK_LOCAL = ("none", "jacobi", "bj")

#: The domain-decomposed (non-bit-identical, opt-in) preconditioners.
DOMAIN_NAMES = ("domain_bj", "schwarz")


def _split(exchanger: HaloExchanger, x: np.ndarray) -> list:
    """Resident per-domain owned segments of ``(n_dof,)`` (no transfer)."""
    return [x[idx] for idx in exchanger._dof]


def _assemble(exchanger: HaloExchanger, segments: list) -> np.ndarray:
    """Canonical ``(n_dof,)`` vector from resident segments (no transfer)."""
    out = np.empty(exchanger.dmap.labels.size * BS)
    for d in range(exchanger.dmap.n_domains):
        out[exchanger._dof[d]] = segments[d]
    return out


def _dist_spmv(
    domains: list, exchanger: HaloExchanger, v: np.ndarray
) -> np.ndarray:
    """Distributed ``A @ v``: ``(n_dof,)``, one halo exchange."""
    extended = exchanger.exchange(_split(exchanger, v))
    return _assemble(exchanger, [
        domain_spmv(dm, extended[dm.domain], exchanger.devices[dm.domain])
        for dm in domains
    ])


def _price_vector_ops(
    exchanger: HaloExchanger, name: str, lengths: list, ops: int
) -> list:
    """Per device, the priced ``name`` launch of ``ops`` fused passes over
    ``lengths[d]`` — what :meth:`HaloExchanger.record` appends."""
    return [
        (device.price(
            name, _vector_ops_counters(n, ops), module="equation_solving"
        ),)
        for device, n in zip(exchanger.devices, lengths)
    ]


class DistributedPreconditioner:
    """A single-device preconditioner running inside the distributed solve.

    Block-local bases (``none``/``jacobi``/``bj``) apply independently
    per domain — numerically unchanged, metered at local lengths. Cross-
    domain bases (``ssor``/``ilu``/``neumann``) are applied gathered:
    the canonical vector is collected, the base applied once, and the
    result redistributed — metered as a full gather+scatter per
    application. Either way the returned values are bit-identical to
    the base's single-device application.
    """

    def __init__(self, base, exchanger: HaloExchanger, local: bool) -> None:
        self.base = base
        self.exchanger = exchanger
        self.local = local
        self.name = getattr(base, "name", "?")
        n_loc = [own.size * BS for own in exchanger.dmap.owned]
        if local:
            self._cost = _price_vector_ops(
                exchanger, "precond_apply_local", n_loc, 2
            )
        else:
            self._cost = [
                exchanger._price(d, "pcie_precond_gather", n * 8)
                + exchanger._price(d, "pcie_precond_scatter", n * 8)
                for d, n in enumerate(n_loc)
            ]

    def apply(self, r: np.ndarray, device=None) -> np.ndarray:
        """Apply to ``(n_dof,)`` and return the same shape."""
        z = self.base.apply(r, None)
        self.exchanger.record(self._cost)
        return z


class DomainBlockJacobi:
    """Block-Jacobi across domains: exact owned x owned solves.

    Applies ``z_d = A_dd^{-1} r_d`` independently per domain on the
    ``(n_dof,)`` residual — no communication, but the dropped
    inter-domain coupling costs CG iterations as the cut grows.
    """

    name = "domain_bj"

    def __init__(self, domains: list, exchanger: HaloExchanger) -> None:
        self.exchanger = exchanger
        self._solve = [_factorize(dm.local) for dm in domains]
        n_loc = [idx.size for idx in exchanger._dof]
        self._cost = _price_vector_ops(exchanger, "domain_bj_solve", n_loc, 6)

    def apply(self, r: np.ndarray, device=None) -> np.ndarray:
        """Apply to ``(n_dof,)`` and return the same shape."""
        ex = self.exchanger
        z = np.empty_like(r)
        for d in range(ex.dmap.n_domains):
            idx = ex._dof[d]
            z[idx] = self._solve[d](r[idx])
        ex.record(self._cost)
        return z


class AdditiveSchwarz:
    """Restricted overlapping additive Schwarz across domains.

    Each application refreshes the ghost halo of the residual (one
    metered exchange), solves every domain's owned+ghost extended
    submatrix exactly, and keeps the owned part (the restricted
    variant, which needs no weighting of the overlap).
    """

    name = "schwarz"

    def __init__(self, domains: list, exchanger: HaloExchanger) -> None:
        self.exchanger = exchanger
        self._solve = [_factorize(dm.extended) for dm in domains]
        self._n_local = [dm.n_local for dm in domains]
        self._cost = _price_vector_ops(
            exchanger, "schwarz_solve", [dm.n_ext * BS for dm in domains], 8
        )

    def apply(self, r: np.ndarray, device=None) -> np.ndarray:
        """Apply to ``(n_dof,)`` and return the same shape."""
        ex = self.exchanger
        extended = ex.exchange(_split(ex, r))
        z = np.empty_like(r)
        for d in range(ex.dmap.n_domains):
            z_ext = self._solve[d](extended[d])
            z[ex._dof[d]] = z_ext[: self._n_local[d] * BS]
        ex.record(self._cost)
        return z


def _factorize(a: BlockMatrix):
    """Exact solver ``f(rhs) -> x`` for one ``(6n x 6n)`` submatrix."""
    if a.n == 0:
        return lambda rhs: rhs.copy()
    from scipy.sparse.linalg import splu

    lu = splu(a.to_scipy_csr().tocsc())
    return lu.solve


def make_domain_preconditioner(
    name: str,
    matrix: BlockMatrix,
    domains: list,
    exchanger: HaloExchanger,
):
    """Preconditioner for the distributed solve, by ladder name.

    Returns an object with a scalar-free ``apply((n_dof,)) -> (n_dof,)``
    method. Single-device names wrap the registry construction
    (bit-identical application); :data:`DOMAIN_NAMES` build the
    domain-decomposed variants.
    """
    if name == "domain_bj":
        return DomainBlockJacobi(domains, exchanger)
    if name == "schwarz":
        return AdditiveSchwarz(domains, exchanger)
    base = make_preconditioner(name, matrix, None)
    return DistributedPreconditioner(base, exchanger, name in BLOCK_LOCAL)


def distributed_pcg(
    domains: list,
    exchanger: HaloExchanger,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    *,
    tol: float = 1e-8,
    max_iterations: int = 200,
    metrics=None,
) -> CGResult:
    """Solve ``A x = b`` by distributed PCG; ``b`` has shape ``(6 n,)``.

    Mirrors :func:`repro.solvers.cg.pcg` exactly (see module
    docstring); ``domains`` are the :class:`~repro.domain.assembly
    .DomainMatrix` splits of ``A`` and ``exchanger`` the matching
    :class:`~repro.domain.halo.HaloExchanger`.
    """
    n = exchanger.dmap.labels.size * BS
    b = check_array("b", b, dtype=np.float64, shape=(n,))
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    m = preconditioner
    if m is None:
        from repro.solvers.preconditioners import IdentityPreconditioner

        m = DistributedPreconditioner(
            IdentityPreconditioner(), exchanger, True
        )
    vector_ops = _price_vector_ops(
        exchanger, "cg_vector_ops", [dm.n_local * BS for dm in domains], 5
    )

    x = np.zeros(n) if x0 is None else check_array("x0", x0, dtype=np.float64,
                                                   shape=(n,)).copy()
    # initial distribution of the operands to the domain devices
    exchanger.scatter(b)
    exchanger.scatter(x)
    # CG's scalar coefficients live on the host by design: one word per
    # ordered (deterministic all-reduce) reduction per iteration
    b_norm = float(np.linalg.norm(b))  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
    exchanger.allreduce()
    if b_norm == 0.0:
        return _observe(metrics, CGResult(
            x=exchanger.gather(_split(exchanger, np.zeros(n)), solution=True),
            iterations=0, converged=True,
        ))

    r = b - _dist_spmv(domains, exchanger, x)
    residuals: list[float] = []
    rel = float(np.linalg.norm(r)) / b_norm  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
    exchanger.allreduce()
    if rel < tol:
        return _observe(metrics, CGResult(
            x=exchanger.gather(_split(exchanger, x), solution=True),
            iterations=0, converged=True, residuals=[],
        ))

    z = m.apply(r)
    p = z.copy()
    step = np.empty(n)  # alpha * p, then alpha * ap: no per-iteration array
    rz = float(r @ z)  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
    exchanger.allreduce()
    for it in range(1, max_iterations + 1):
        ap = _dist_spmv(domains, exchanger, p)
        pap = float(p @ ap)  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
        exchanger.allreduce()
        if pap <= 0.0:
            # matrix not SPD along p (defensive): report breakdown
            return _observe(metrics, CGResult(
                x=exchanger.gather(_split(exchanger, x), solution=True),
                iterations=it, converged=False, residuals=residuals,
                breakdown=True,
            ))
        alpha = rz / pap
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        exchanger.record(vector_ops)
        rel = float(np.linalg.norm(r)) / b_norm  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
        exchanger.allreduce()
        residuals.append(rel)
        if rel < tol:
            return _observe(metrics, CGResult(
                x=exchanger.gather(_split(exchanger, x), solution=True),
                iterations=it, converged=True, residuals=residuals,
            ))
        z = m.apply(r)
        rz_new = float(r @ z)  # lint: sync-ok[cg-convergence] -- one ordered all-reduce scalar per iteration
        exchanger.allreduce()
        beta = rz_new / rz
        p *= beta  # p = z + beta * p, in place (p never aliases z)
        p += z
        rz = rz_new
    return _observe(metrics, CGResult(
        x=exchanger.gather(_split(exchanger, x), solution=True),
        iterations=max_iterations, converged=False, residuals=residuals,
    ))
