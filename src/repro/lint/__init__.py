"""Device-path static analysis and dynamic race sanitizing.

The paper's contribution is *discipline* on the device path: conflict-free
sort+scan assembly (Fig. 4), vectorised kernels measured with divergence
and transaction counters, and minimised host<->device transmissions. This
package makes that discipline machine-checked:

* :mod:`repro.lint.framework` + :mod:`repro.lint.passes` — AST-based
  static passes (rules ``DDA001``–``DDA005``) over the kernel-path
  modules, run via ``python -m repro lint``;
* :mod:`repro.lint.sanitize` — an opt-in shadow-memory scatter-write
  race sanitizer for the virtual GPU, enabled with
  ``SimulationControls.sanitize`` / ``--sanitize``.

See ``docs/static-analysis.md`` for the rule catalogue and workflow.
"""

from repro.lint.framework import Finding, LintReport, run_lint

__all__ = ["Finding", "LintReport", "run_lint"]
