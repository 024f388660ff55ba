"""Device-path static analysis.

The paper's contribution is *discipline* on the device path: vectorised
kernels measured with divergence and transaction counters, and minimised
host<->device transmissions. This package makes that discipline
machine-checked: :mod:`repro.lint.framework` + :mod:`repro.lint.passes`
are AST-based static passes (rules ``DDA001``, ``DDA004``, ``DDA007``
and ``DDA008``) over the kernel-path modules, their call-graph
closure (:mod:`repro.lint.callgraph`) and the service path, run via
``python -m repro lint``. No engine imports this package.

See ``docs/static-analysis.md`` for the rule catalogue and workflow.
"""

from repro.lint.framework import Finding, LintReport, run_lint

__all__ = ["Finding", "LintReport", "run_lint"]
