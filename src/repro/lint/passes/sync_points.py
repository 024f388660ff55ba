"""DDA007 — every implicit device→host sync point carries a reason.

A real device backend executes kernel launches asynchronously; the
queue only drains when the host *needs* a value — ``.item()``,
``float(...)`` of a reduction, an array (element) in an ``if``/``while``
test. Each such site is a pipeline stall, and a strict Array-API
namespace backend must either fence it deliberately or restructure it
away. This pass finds them all and demands an explicit, reasoned
annotation::

    rz = float(r @ z)  # lint: sync-ok[cg-convergence] -- host loop decides

Unlike the generic ``host-ok`` (which DDA007 deliberately ignores), a
``sync-ok`` requires a non-empty reason — the bracket tag or the
``-- text`` trailer. Annotated sites stay visible: every site, annotated
or not, lands in the machine-readable sync-point inventory
(``repro lint --sync-inventory``), the exhaustive worklist of host
decision points for the backend shim.

Expressions inside a ``device.launch(...)`` / ``KernelCounters(...)``
call (and the transaction-counting helpers) are exempt: they *are* the
virtual-GPU cost model, host code by design, not the simulated data
path.

The pass also runs a light intra-function taint: a name assigned from a
truthiness-relevant NumPy call (``np.flatnonzero``, ``np.unique``, a
reduction) is remembered, and using that bare name as a branch test is
a sync point too — the pattern ``hits = np.flatnonzero(m)`` ... ``if
hits.size:`` stalls exactly like the inline spelling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    Finding,
    LintPass,
    SourceModule,
    SyncPoint,
)

#: Method names whose call result is a device-side reduction.
REDUCTION_ATTRS = frozenset({
    "sum", "min", "max", "mean", "prod", "dot", "norm",
    "count_nonzero", "all", "any", "trace",
})

#: Calls whose argument subtree is cost-model context, not data path.
MODEL_CALL_NAMES = frozenset({
    "KernelCounters", "coalesced_transactions", "gather_transactions",
    "launch",
})

#: np.* functions whose result, used as a truth value, forces a sync.
NP_PREDICATES = frozenset({
    "all", "any", "count_nonzero", "array_equal", "allclose", "isclose",
    "array_equiv", "sum", "max", "min", "isin",
})

#: np.* functions whose *assigned result* taints a name: branching on
#: the bare name (or its ``.size``) later is a sync point.
NP_TAINTING = frozenset({
    "flatnonzero", "nonzero", "argwhere", "unique", "where",
    "intersect1d", "setdiff1d", "union1d",
})


def _is_model_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in MODEL_CALL_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in MODEL_CALL_NAMES
    return False


def _numpy_function(module: SourceModule, node: ast.Call) -> str | None:
    """``foo`` when ``node`` calls ``numpy.foo``, however it was
    imported (``np.foo``, ``xp.foo``, ``from numpy import foo``)."""
    head, _, name = (module.resolve(node.func) or "").partition(".")
    return name if head == "numpy" else None


def _is_dict_style(node: ast.Subscript) -> bool:
    """String-keyed subscripts are host dict lookups, not array reads."""
    key = node.slice
    return isinstance(key, ast.Constant) and isinstance(key.value, str)


def _test_evidence(
    module: SourceModule, test: ast.AST, tainted: set[str]
) -> str | None:
    """Why a branch/loop test forces a device sync (or ``None``)."""
    if isinstance(test, ast.Name) and test.id in tainted:
        return f"truth-test of device-derived '{test.id}'"
    for sub in ast.walk(test):
        if isinstance(sub, ast.Subscript) and not _is_dict_style(sub):
            return "array subscript in test"
        if isinstance(sub, ast.Call):
            np_name = _numpy_function(module, sub)
            if np_name in NP_PREDICATES:
                return f"'np.{np_name}(...)' in test"
            if (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr in REDUCTION_ATTRS
            ):
                return f"device reduction '.{sub.func.attr}()' in test"
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "size"
            and isinstance(sub.value, ast.Name)
            and sub.value.id in tainted
        ):
            return f"'.size' of device-derived '{sub.value.id}'"
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
            return "device dot product '@' in test"
    return None


def _cast_evidence(module: SourceModule, arg: ast.AST) -> str | None:
    """Why ``float/int/bool(arg)`` pulls a device scalar to the host."""
    if isinstance(arg, ast.Subscript) and not _is_dict_style(arg):
        return "array subscript"
    if isinstance(arg, ast.Call):
        if isinstance(arg.func, ast.Attribute) and (
            arg.func.attr in REDUCTION_ATTRS
        ):
            return f"device reduction '.{arg.func.attr}()'"
        np_name = _numpy_function(module, arg)
        if np_name in NP_PREDICATES:
            return f"'np.{np_name}(...)'"
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.MatMult):
        return "device dot product '@'"
    return None


class SyncPointPass(LintPass):
    code = "DDA007"
    name = "annotated-sync-points"
    description = (
        "every implicit device-to-host sync (.item(), float/bool of "
        "arrays, arrays in if/while tests) carries a reasoned "
        "'# lint: sync-ok[...]' annotation; all sites feed the "
        "--sync-inventory report"
    )

    def scan(
        self, module: SourceModule, root: ast.AST
    ) -> Iterator[Finding | SyncPoint]:
        yield from self._visit(module, root, None, set())

    def _visit(
        self, module: SourceModule, node: ast.AST,
        scope: str | None, tainted: set[str],
    ) -> Iterator[Finding | SyncPoint]:
        if isinstance(node, ast.Call) and _is_model_call(node):
            return  # the virtual-GPU cost model is host code by design
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
            tainted = set()  # taint is per-function
        elif isinstance(node, ast.Assign):
            tainted_name = self._taint_target(module, node)
            if tainted_name is not None:
                tainted.add(tainted_name)
        if isinstance(node, ast.Call):
            yield from self._check_call(module, node, scope)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            evidence = _test_evidence(module, node.test, tainted)
            if evidence is not None:
                kind = (
                    "loop-guard" if isinstance(node, ast.While)
                    else "branch"
                )
                yield from self._emit(
                    module, node.test, kind, evidence, scope
                )
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child, scope, tainted)

    @staticmethod
    def _taint_target(module: SourceModule, node: ast.Assign) -> str | None:
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            return None
        value = node.value
        if isinstance(value, ast.Call):
            np_name = _numpy_function(module, value)
            if np_name in NP_TAINTING:
                return node.targets[0].id
        return None

    def _check_call(
        self, module: SourceModule, node: ast.Call, scope: str | None
    ) -> Iterator[Finding | SyncPoint]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("item", "tolist")
            and not node.args
        ):
            yield from self._emit(
                module, node, func.attr,
                f"'.{func.attr}()' drains the device queue", scope,
            )
        elif (
            isinstance(func, ast.Name)
            and func.id in ("float", "int", "bool")
            and len(node.args) == 1
        ):
            evidence = _cast_evidence(module, node.args[0])
            if evidence is not None:
                yield from self._emit(
                    module, node, "scalar-cast",
                    f"'{func.id}(...)' of a {evidence}", scope,
                )

    def _emit(
        self, module: SourceModule, node: ast.AST,
        kind: str, detail: str, scope: str | None,
    ) -> Iterator[Finding | SyncPoint]:
        line = getattr(node, "lineno", 1)
        annotated, reason = module.annotation_reason("sync-ok", line)
        yield SyncPoint(
            file=module.rel, line=line, kind=kind, detail=detail,
            function=scope, annotated=annotated, reason=reason,
        )
        yield from self.governed(
            module, node, "sync-ok",
            f"implicit device-to-host sync ({kind}: {detail}); "
            "annotate '# lint: sync-ok[reason]' or restructure",
            scope,
        )
