"""Call-graph closure: edge cases, attribution, and real-package pins.

The corpus tests exercise the resolver on the shapes the summary calls
out — import cycles, ``from x import y as z`` aliasing, calls through
module attributes — plus the cross-module suppression contract (an
annotation at the *definition* silences a closure finding; one at the
kernel call site does not). The real-package tests pin what the
closure actually covers so a resolver regression shows up as a diff of
module names, not as silently vanished findings.
"""

import json
from functools import lru_cache
from pathlib import Path

from repro.lint.callgraph import MODULE_SCOPE, build_program
from repro.lint.framework import (
    SourceModule,
    default_root,
    run_lint,
    walk_files,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def corpus(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def program_for(root: Path):
    modules = [SourceModule(root, p) for p in walk_files(root)]
    return build_program(root, modules)


@lru_cache(maxsize=1)
def real_program():
    return program_for(default_root())


#: A host helper with one DDA001 violation (axis loop).
HELPER = (
    "def helper(a, n):\n"
    "    for i in range(n):\n"
    "        pass\n"
    "    return a\n"
)


# ----------------------------------------------------------------------
# resolution edge cases (corpus)
# ----------------------------------------------------------------------

def test_closure_through_plain_from_import(tmp_path):
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.h import helper\n"
            "def kernel(a, n_contacts):\n"
            "    return helper(a, n_contacts)\n"
        ),
        "util/h.py": HELPER,
    })
    report = run_lint(root, select={"DDA001"})
    (finding,) = report.findings
    assert finding.file == "util/h.py"
    assert finding.line == 2
    assert finding.function == "helper"
    # provenance points back at the kernel-path call site
    assert finding.via[0] == ("contact/k.py", 3, "kernel")
    assert "[kernel closure via contact/k.py:3 (kernel)]" in (
        finding.render()
    )


def test_closure_through_import_alias(tmp_path):
    # `from x import y as z` — the alias is what the call site spells
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.h import helper as hp\n"
            "def kernel(a, n_contacts):\n"
            "    return hp(a, n_contacts)\n"
        ),
        "util/h.py": HELPER,
    })
    report = run_lint(root, select={"DDA001"})
    assert [f.file for f in report.findings] == ["util/h.py"]


def test_closure_through_module_attribute_calls(tmp_path):
    # `import util.h as uh; uh.helper(...)` and the fully dotted
    # `import util.h; util.h.helper(...)` both resolve
    root = corpus(tmp_path, {
        "contact/k.py": (
            "import util.h as uh\n"
            "def kernel(a, n_contacts):\n"
            "    return uh.helper(a, n_contacts)\n"
        ),
        "assembly/k.py": (
            "import util.g\n"
            "def kernel(a, n_blocks):\n"
            "    return util.g.helper2(a, n_blocks)\n"
        ),
        "util/h.py": HELPER,
        "util/g.py": HELPER.replace("helper", "helper2"),
    })
    report = run_lint(root, select={"DDA001"})
    assert sorted(f.file for f in report.findings) == [
        "util/g.py", "util/h.py",
    ]


def test_closure_survives_import_cycles(tmp_path):
    # a <-> b mutual recursion: the closure of the clique is the
    # clique, and the sweep terminates
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.a import ping\n"
            "def kernel(n_contacts):\n"
            "    return ping(n_contacts)\n"
        ),
        "util/a.py": (
            "from util.b import pong\n"
            "def ping(n):\n"
            "    return pong(n)\n"
        ),
        "util/b.py": (
            "from util.a import ping\n"
            "def pong(n):\n"
            "    for i in range(n):\n"
            "        pass\n"
            "    return ping(n - 1)\n"
        ),
    })
    program = program_for(root)
    assert ("util/a.py", "ping") in program.closure
    assert ("util/b.py", "pong") in program.closure
    report = run_lint(root, select={"DDA001"})
    assert [f.file for f in report.findings] == ["util/b.py"]


def test_reexport_chase_through_package_init(tmp_path):
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util import helper\n"
            "def kernel(a, n_contacts):\n"
            "    return helper(a, n_contacts)\n"
        ),
        "util/__init__.py": "from util.h import helper\n",
        "util/h.py": HELPER,
    })
    report = run_lint(root, select={"DDA001"})
    assert [f.file for f in report.findings] == ["util/h.py"]


def test_unreachable_helper_stays_out_of_closure(tmp_path):
    root = corpus(tmp_path, {
        "contact/k.py": (
            "def kernel(a):\n"
            "    return a\n"
        ),
        "util/h.py": HELPER,
    })
    program = program_for(root)
    assert ("util/h.py", "helper") not in program.closure
    report = run_lint(root, select={"DDA001"})
    assert not report.findings


def test_external_names_never_resolve(tmp_path):
    # np.sum / math.ceil are not repo code; an accidental local def
    # named `sum`-adjacent must not be dragged into the closure
    root = corpus(tmp_path, {
        "contact/k.py": (
            "import numpy as np\n"
            "import math\n"
            "def kernel(a):\n"
            "    return np.sum(a) + math.ceil(1.5)\n"
        ),
        "util/h.py": (
            "def ceil(n):\n"
            "    for i in range(n):\n"
            "        pass\n"
        ),
    })
    program = program_for(root)
    assert ("util/h.py", "ceil") not in program.closure


# ----------------------------------------------------------------------
# cross-module suppression scoping
# ----------------------------------------------------------------------

def test_annotation_at_definition_silences_closure_finding(tmp_path):
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.h import helper\n"
            "def kernel(a, n_contacts):\n"
            "    return helper(a, n_contacts)\n"
        ),
        "util/h.py": (
            "def helper(a, n):\n"
            "    # lint: host-ok[DDA001] -- documented serial reference\n"
            "    for i in range(n):\n"
            "        pass\n"
            "    return a\n"
        ),
    })
    report = run_lint(root, select={"DDA001"})
    assert not report.findings


def test_annotation_at_call_site_does_not_silence_definition(tmp_path):
    # the violation lives at the definition; silencing it is the
    # definition module's decision, not the caller's
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.h import helper\n"
            "def kernel(a, n_contacts):\n"
            "    # lint: host-ok -- wishful thinking\n"
            "    return helper(a, n_contacts)\n"
        ),
        "util/h.py": HELPER,
    })
    report = run_lint(root, select={"DDA001"})
    assert [f.file for f in report.findings] == ["util/h.py"]


# ----------------------------------------------------------------------
# attribution: nested functions
# ----------------------------------------------------------------------

def test_nested_function_attribution(tmp_path):
    root = corpus(tmp_path, {
        "contact/k.py": (
            "from util.h import outer\n"
            "def kernel(a, n_contacts):\n"
            "    return outer(a, n_contacts)\n"
        ),
        "util/h.py": (
            "def outer(a, n):\n"
            "    def inner():\n"
            "        for i in range(n):\n"
            "            pass\n"
            "    inner()\n"
            "    return a\n"
        ),
    })
    report = run_lint(root, select={"DDA001"})
    (finding,) = report.findings
    assert finding.file == "util/h.py"
    assert finding.function == "outer.inner"


# ----------------------------------------------------------------------
# real-package pins
# ----------------------------------------------------------------------

def test_domain_is_kernel_path():
    program = real_program()
    assert ("domain/solve.py", MODULE_SCOPE) in program.closure
    assert ("domain/partition.py", MODULE_SCOPE) in program.closure


def test_closure_covers_known_host_helpers():
    program = real_program()
    for rel, qual in [
        ("util/validation.py", "check_array"),
        ("util/rng.py", "make_rng"),
        ("obs/metrics.py", "Histogram.observe"),
        ("geometry/tolerances.py", "Tolerances.from_points"),
        ("core/blocks.py", "BlockSystem.__init__"),
    ]:
        assert (rel, qual) in program.closure, (rel, qual)


def test_closure_module_coverage_pin():
    """The exact set of non-kernel modules the closure reaches.

    A resolver change that grows or shrinks this set is a reviewable
    event, not an invisible coverage drift — update the pin with the
    reason in the commit. (PR 19: the polynomial preconditioner's module
    left — its only closure member was that preconditioner's
    constructor, reached through ``make_preconditioner``, which
    kernel-path ``domain/solve.py`` no longer calls; every preset's
    preconditioners are now constructed by the engine, as the
    single-device presets' always were.)
    ``lint/sanitize.py`` left with the scatter sanitizer, and
    ``engine/contracts.py`` with it: its one closure member was
    ``ContractViolation.__init__``, reached only through the sanitizer's
    race report, which ``radix_sort_pairs`` called through the
    sanitizer's hook. The engines still raise contract violations, but
    from loop code the kernel path never calls.
    ``analysis/topology.py`` left when it was deleted: the partitioner
    reached its one closure member only through an option no caller
    set.
    """
    program = real_program()
    covered = sorted(
        {
            rel for rel, _ in program.closure
            if not program.modules[rel].is_kernel_path()
        }
    )
    assert covered == [
        "core/blocks.py",
        "core/displacement.py",
        "core/materials.py",
        "geometry/distance.py",
        "geometry/tolerances.py",
        "obs/metrics.py",
        "solvers/preconditioners.py",
        "util/rng.py",
        "util/validation.py",
    ]


def test_entry_chains_terminate_at_kernel_seeds():
    program = real_program()
    for rel, qual in program.closure:
        if program.modules[rel].is_kernel_path():
            continue
        chain = program.entry_chain((rel, qual))
        assert chain, (rel, qual)
        # the last hop's caller is (or leads further toward) a seed;
        # with the default hop budget every chain ends on kernel path
        assert program.modules[chain[-1][0]].is_kernel_path(), (rel, qual)


def test_checked_in_sync_inventory_is_current():
    """``results/sync_inventory.json`` matches a fresh run exactly."""
    checked_in = json.loads(
        (REPO_ROOT / "results" / "sync_inventory.json").read_text(
            encoding="utf-8"
        )
    )
    fresh = run_lint().sync_inventory()
    assert fresh == checked_in
