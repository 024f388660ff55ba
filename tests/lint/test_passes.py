"""Per-pass fixtures for the DDA001 and DDA004 static rules.

The interprocedural rules (DDA007, DDA008) and the call-graph closure
live in ``test_new_passes.py`` / ``test_callgraph.py``.

Each test builds a tiny corpus under ``tmp_path`` laid out like the
package (``contact/`` is on the kernel path, ``util/`` is not), runs
:func:`repro.lint.framework.run_lint` against it, and asserts on the
finding codes — one positive and one negative snippet per rule, plus
the suppression and exemption machinery.
"""

from pathlib import Path

from repro.lint.framework import (
    KERNEL_PATH,
    MODULE_EXEMPTIONS,
    SourceModule,
    run_lint,
)
from repro.lint.passes import ALL_CODES, ALL_PASSES


def corpus(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def codes_at(report, rel: str) -> list[str]:
    return [f.code for f in report.findings if f.file == rel]


# ----------------------------------------------------------------------
# registry hygiene
# ----------------------------------------------------------------------

def test_pass_registry_well_formed():
    assert len(ALL_PASSES) == 4
    assert ALL_CODES == {"DDA001", "DDA004", "DDA007", "DDA008"}
    for p in ALL_PASSES:
        assert p.code in ALL_CODES
        assert p.name and p.description
        # a rule is either device-side (kernel path) or service-side,
        # never both
        assert not (p.kernel_path_only and p.service_path_only)


# ----------------------------------------------------------------------
# DDA001 — axis loops
# ----------------------------------------------------------------------

def test_dda001_flags_axis_loops(tmp_path):
    root = corpus(tmp_path, {"contact/k.py": (
        "def f(pairs, n_contacts):\n"
        "    for i in range(n_contacts):\n"
        "        pass\n"
        "    for p in pairs:\n"
        "        pass\n"
        "    i = 0\n"
        "    while i < n_contacts:\n"
        "        i += 1\n"
    )})
    report = run_lint(root, select={"DDA001"})
    assert codes_at(report, "contact/k.py") == ["DDA001"] * 3


def test_dda001_ignores_small_fixed_loops_and_host_modules(tmp_path):
    root = corpus(tmp_path, {
        # a fixed-trip loop (radix passes, axes of a 6x6 block) is fine
        "contact/k.py": "def f():\n    for axis in range(2):\n        pass\n",
        # same axis loop off the kernel path: not DDA001's business
        "util/h.py": "def g(n):\n    for i in range(n):\n        pass\n",
    })
    report = run_lint(root, select={"DDA001"})
    assert not report.findings


# ----------------------------------------------------------------------
# hidden host transfers are DDA007 sync points
# ----------------------------------------------------------------------

def test_dda007_flags_hidden_transfers(tmp_path):
    root = corpus(tmp_path, {"assembly/k.py": (
        "def f(a, k):\n"
        "    x = a.tolist()\n"
        "    y = float(a.sum())\n"
        "    z = int(a[k])\n"
        "    if a[k]:\n"
        "        pass\n"
        "    return x, y, z\n"
    )})
    report = run_lint(root, select={"DDA007"})
    assert codes_at(report, "assembly/k.py") == ["DDA007"] * 4
    assert [f.line for f in report.findings] == [2, 3, 4, 5]


# ----------------------------------------------------------------------
# DDA004 — seeded RNG only (applies everywhere, not just kernel path)
# ----------------------------------------------------------------------

def test_dda004_flags_unseeded_and_legacy_rng(tmp_path):
    root = corpus(tmp_path, {"util/h.py": (
        "import random\n"
        "import numpy as np\n"
        "def f():\n"
        "    a = np.random.rand(3)\n"
        "    rng = np.random.default_rng()\n"
        "    return a, rng\n"
    )})
    report = run_lint(root, select={"DDA004"})
    assert codes_at(report, "util/h.py") == ["DDA004"] * 3


def test_dda004_allows_seeded_rng_and_rng_home(tmp_path):
    root = corpus(tmp_path, {
        "util/h.py": (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        # util/rng.py is the one module allowed to build generators
        "util/rng.py": (
            "import numpy as np\n"
            "def make_rng(seed=None):\n"
            "    return np.random.default_rng(seed)\n"
        ),
    })
    report = run_lint(root, select={"DDA004"})
    assert not report.findings


# ----------------------------------------------------------------------
# suppressions and exemptions
# ----------------------------------------------------------------------

def test_bare_host_ok_suppresses_all_codes(tmp_path):
    root = corpus(tmp_path, {"contact/k.py": (
        "import numpy as np\n"
        "def f(n):\n"
        "    # lint: host-ok -- documented serial reference\n"
        "    for i in range(n):\n"
        "        pass\n"
        "    return np.random.default_rng()  # lint: host-ok -- fixture\n"
    )})
    report = run_lint(root, select={"DDA001", "DDA004"})
    assert not report.findings


def test_scoped_host_ok_suppresses_only_listed_codes(tmp_path):
    src = (
        "import numpy as np\n"
        "def f(n):\n"
        "    for i in range(n):  # lint: host-ok[DDA001]\n"
        "        pass\n"
        "    return np.random.default_rng()  # lint: host-ok[DDA001]\n"
    )
    root = corpus(tmp_path, {"spmv/k.py": src})
    report = run_lint(root, select={"DDA001", "DDA004"})
    # DDA001 silenced by the scoped comment; DDA004 still fires
    assert codes_at(report, "spmv/k.py") == ["DDA004"]


def test_suppression_map_covers_line_above(tmp_path):
    path = tmp_path / "k.py"
    path.write_text("# lint: host-ok[DDA001]\nx = 1\n", encoding="utf-8")
    module = SourceModule(tmp_path, path)
    assert module.suppressed(2, "DDA001")  # line under the comment
    assert module.suppressed(1, "DDA001")  # the comment line itself
    assert not module.suppressed(2, "DDA004")  # scoped: other codes live


def test_module_exemptions_match_real_entries(tmp_path):
    # the registry's entries are checked against the package in
    # test_rule_coverage.py; here one entry is applied to a corpus
    assert "DDA001" in MODULE_EXEMPTIONS["spmv/synthetic.py"][0]
    root = corpus(tmp_path, {"spmv/synthetic.py": (
        "import random\n"
        "def f(n):\n"
        "    for i in range(n):\n"
        "        pass\n"
    )})
    report = run_lint(root)
    # DDA001 exempted module-wide; DDA004 (not exempted) still applies
    codes = codes_at(report, "spmv/synthetic.py")
    assert "DDA001" not in codes
    assert "DDA004" in codes


def test_kernel_path_prefixes_are_directories_or_files():
    for entry in KERNEL_PATH:
        assert entry.endswith("/") or entry.endswith(".py")
