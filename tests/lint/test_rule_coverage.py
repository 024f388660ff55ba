"""Every rule can catch something, and every name a suppression uses exists.

A rule earns its place by firing on the defect it claims to catch:
:data:`PLANTED` holds one defect per registered code with the
``(file, line)`` the finding must anchor at, and a new rule cannot land
without an entry. The other half is hygiene on the real package: a
scoped ``host-ok[...]`` or a module exemption that names a deleted rule
would otherwise be accepted silently.
"""

from pathlib import Path

import pytest

from repro.lint.framework import (
    MODULE_EXEMPTIONS,
    SourceModule,
    default_root,
    run_lint,
    walk_files,
)
from repro.lint.passes import ALL_CODES

#: code -> (file under a package-shaped root, source, finding line)
PLANTED = {
    "DDA001": (
        "contact/k.py",
        "def f(n_contacts):\n"
        "    for i in range(n_contacts):\n"
        "        pass\n",
        2,
    ),
    "DDA004": (
        "util/h.py",
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng()\n",
        3,
    ),
    "DDA007": (
        "solvers/cg.py",
        "def f(r, z):\n"
        "    return float(r @ z)\n",
        2,
    ),
    "DDA008": (
        "service/q.py",
        "import os\n"
        "def f(src, dst):\n"
        "    os.rename(src, dst)\n",
        3,
    ),
}


def test_every_rule_has_a_planted_defect():
    assert set(PLANTED) == ALL_CODES


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_planted_defect_is_the_one_finding(code, tmp_path):
    rel, source, line = PLANTED[code]
    path = tmp_path / rel
    path.parent.mkdir(parents=True)
    path.write_text(source, encoding="utf-8")
    # every rule runs: the snippet trips its own rule and no other
    report = run_lint(tmp_path)
    assert [(f.code, f.file, f.line) for f in report.findings] == [
        (code, rel, line)
    ]


# ----------------------------------------------------------------------
# suppressions and exemptions name live rules
# ----------------------------------------------------------------------

def test_scoped_suppressions_name_registered_rules():
    root = default_root()
    stale = []
    for path in walk_files(root):
        module = SourceModule(root, path)
        for line, codes in module.suppressions.items():
            if codes is not None and not codes <= ALL_CODES:
                stale.append(f"{module.rel}:{line}: {sorted(codes - ALL_CODES)}")
    assert not stale


def test_module_exemptions_name_registered_rules_and_real_files():
    root = default_root()
    for rel, (codes, reason) in MODULE_EXEMPTIONS.items():
        assert codes <= ALL_CODES, (rel, sorted(codes - ALL_CODES))
        assert reason
        assert Path(root, rel).is_file(), rel
