"""DDA004 — no unseeded or legacy RNG outside ``util/rng.py``.

Reproducibility rule: every stochastic choice (mesh jitter, service
fault decisions, benchmark workloads) must come from an explicitly seeded
generator so two runs with equal configuration are bit-identical — the
batch service's result cache and the seeded soak campaigns rely on it.
The legacy global ``np.random.*`` API (hidden mutable global state) and
the stdlib ``random`` module are banned everywhere; ``default_rng()``
must receive a seed expression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    RNG_HOME,
    Finding,
    LintPass,
    SourceModule,
)

#: ``np.random`` attributes that are fine to reference anywhere.
ALLOWED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
})


def _is_np_random(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


class RngPass(LintPass):
    code = "DDA004"
    name = "seeded-rng-only"
    description = (
        "no legacy np.random.* global-state API, stdlib random, or "
        "unseeded default_rng() outside util/rng.py"
    )
    kernel_path_only = False

    def run(self, module: SourceModule) -> Iterator[Finding]:
        if module.rel == RNG_HOME:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [node.module] if isinstance(node, ast.ImportFrom)
                    else [a.name for a in node.names]
                )
                if "random" in names:
                    yield self.finding(
                        module, node,
                        "stdlib 'random' uses hidden global state; use "
                        "repro.util.rng.make_rng(seed) instead",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and _is_np_random(node.value)
                and node.attr not in ALLOWED_NP_RANDOM
            ):
                yield self.finding(
                    module, node,
                    f"legacy global-state API 'np.random.{node.attr}'; "
                    "use an explicitly seeded Generator "
                    "(repro.util.rng.make_rng)",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                is_default_rng = (
                    isinstance(func, ast.Name) and func.id == "default_rng"
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "default_rng"
                )
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if is_default_rng and unseeded:
                    yield self.finding(
                        module, node,
                        "unseeded default_rng() — results become "
                        "irreproducible; pass an explicit seed",
                    )
