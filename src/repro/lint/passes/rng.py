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

#: ``numpy.random`` attributes that are fine to reference anywhere.
ALLOWED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
})


class RngPass(LintPass):
    code = "DDA004"
    name = "seeded-rng-only"
    description = (
        "no legacy np.random.* global-state API, stdlib random, or "
        "unseeded default_rng() outside util/rng.py"
    )
    scope = "program"

    def run(self, module: SourceModule) -> Iterator[Finding]:
        if module.rel == RNG_HOME:
            return
        for line in sorted(
            {ln for name, ln in module.imports if name.split(".")[0] == "random"}
        ):
            yield Finding(
                file=module.rel, line=line, code=self.code,
                message="stdlib 'random' uses hidden global state; use "
                        "repro.util.rng.make_rng(seed) instead",
            )
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                parts = (module.resolve(node) or "").split(".")
                if (
                    len(parts) == 3 and parts[:2] == ["numpy", "random"]
                    and parts[2] not in ALLOWED_NP_RANDOM
                ):
                    yield self.finding(
                        module, node,
                        f"legacy global-state API 'np.random.{parts[2]}'; "
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
