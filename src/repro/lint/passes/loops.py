"""DDA001 — no Python loops over data axes in kernel-path modules.

The paper's pipeline is "one thread per contact / per block / per
non-zero"; a Python ``for`` over one of those axes is the serial
anti-pattern that silently destroys both wall time and the modelled
kernel costs. The rule is heuristic (static analysis cannot know an
iterable's length): it flags loops whose iterable *names* a data axis —
``range(n_contacts)``, ``range(len(pairs))``, ``range(a.shape[0])``,
direct iteration over an array-ish name — and trusts ``# lint: host-ok``
for the deliberate host-side loops (e.g. ``BlockMatrix.to_dense``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    Finding,
    LintPass,
    SourceModule,
    walk_scoped,
)

#: Identifiers that (by repo convention) hold a data-axis extent.
AXIS_NAMES = frozenset({
    "n", "m", "q", "nv", "nnz",
    "n_blocks", "n_contacts", "n_vertices", "n_dof", "n_offdiag",
    "n_rows", "n_cols", "n_workers", "n_slices", "n_pairs", "n_labels",
    "n_entries", "n_warps",
})

#: Identifiers that (by repo convention) hold a device array.
ARRAY_NAMES = frozenset({
    "blocks", "contacts", "pairs", "vertices", "rows", "cols",
    "keys", "values", "indices", "aabbs", "lengths", "starts",
    "offsets", "labels",
})


def _axis_evidence(node: ast.AST) -> str | None:
    """Why an expression looks like a data-axis extent (or ``None``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in AXIS_NAMES:
            return f"'{sub.id}'"
        if isinstance(sub, ast.Attribute):
            if sub.attr in AXIS_NAMES:
                return f"'.{sub.attr}'"
            if sub.attr in ("shape", "size"):
                return f"'.{sub.attr}'"
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
        ):
            return "'len(...)'"
    return None


def _iterable_evidence(node: ast.AST) -> str | None:
    """Why a ``for`` iterable walks a data axis (or ``None``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "range":
            for arg in node.args:
                evidence = _axis_evidence(arg)
                if evidence:
                    return f"range over {evidence}"
            return None
        if node.func.id in ("enumerate", "zip", "reversed"):
            for arg in node.args:
                evidence = _iterable_evidence(arg)
                if evidence:
                    return evidence
            return None
    if isinstance(node, ast.Name) and node.id in ARRAY_NAMES:
        return f"iteration over array '{node.id}'"
    if isinstance(node, ast.Attribute) and node.attr in ARRAY_NAMES:
        return f"iteration over array '.{node.attr}'"
    return None


class LoopPass(LintPass):
    code = "DDA001"
    name = "no-axis-loops"
    description = (
        "no Python for/while loops over block/contact/nonzero axes in "
        "kernel-path modules (vectorised numpy only)"
    )

    def scan(
        self, module: SourceModule, root: ast.AST
    ) -> Iterator[Finding]:
        for node, func in walk_scoped(root):
            if isinstance(node, ast.For):
                evidence = _iterable_evidence(node.iter)
                if evidence:
                    yield self.finding(
                        module, node,
                        f"Python for-loop over a data axis ({evidence}); "
                        "vectorise with numpy or mark '# lint: host-ok' "
                        "with a reason",
                        function=func,
                    )
            elif isinstance(node, ast.While):
                evidence = _axis_evidence(node.test)
                if evidence:
                    yield self.finding(
                        module, node,
                        f"Python while-loop guarded by a data axis "
                        f"({evidence}); vectorise with numpy or mark "
                        "'# lint: host-ok' with a reason",
                        function=func,
                    )
