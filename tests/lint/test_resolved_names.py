"""Rules match the name a call resolves to, not how it is spelled.

DDA004, DDA007 and DDA008 read each file's import bindings
(``SourceModule.bindings``), so an aliased import of a banned or
sync-forcing name is caught like the plain ``np.``/``os.`` spelling
(those rows live in ``test_passes.py`` and ``test_new_passes.py``).
Each row of :data:`SPELLINGS` must be the one finding of its rule, at
its line.
"""

import pytest

from repro.lint.callgraph import build_program
from repro.lint.cli import lint_main
from repro.lint.framework import SourceModule, run_lint, walk_files

#: (code, file under a package-shaped root, source, finding line)
SPELLINGS = [
    ("DDA004", "util/h.py", "import numpy as xp\nxp.random.seed(0)\n", 2),
    ("DDA004", "util/h.py", "from numpy import random\nrandom.seed(0)\n", 2),
    (
        "DDA007", "contact/k.py",
        "from numpy import count_nonzero\n"
        "def f(a):\n"
        "    if count_nonzero(a):\n"
        "        pass\n",
        3,
    ),
    (
        "DDA008", "service/q.py",
        "from os import replace\ndef f(a, b):\n    replace(a, b)\n", 3,
    ),
    (
        "DDA008", "service/q.py",
        "import os as _os\ndef f(a, b):\n    _os.replace(a, b)\n", 3,
    ),
    (
        "DDA008", "service/q.py",
        "from shutil import move\ndef f(a, b):\n    move(a, b)\n", 3,
    ),
]


@pytest.mark.parametrize(
    "code, rel, source, line", SPELLINGS,
    ids=[f"{row[0]}-{row[2].splitlines()[0]}" for row in SPELLINGS],
)
def test_each_spelling_is_the_one_finding_of_its_rule(
    code, rel, source, line, tmp_path
):
    path = tmp_path / rel
    path.parent.mkdir(parents=True)
    path.write_text(source, encoding="utf-8")
    report = run_lint(tmp_path)
    assert [(f.code, f.file, f.line) for f in report.findings] == [
        (code, rel, line)
    ]


def test_package_root_resolves_only_its_own_dotted_names(tmp_path):
    # a stdlib ``import io`` is not the package's ``io`` subpackage
    root = tmp_path / "pkg"
    for rel in ("__init__.py", "io/__init__.py", "k.py"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("import io\n", encoding="utf-8")
    modules = [SourceModule(root, p) for p in walk_files(root)]
    program = build_program(root, modules)
    assert program.locate("io") is None
    assert program.locate("pkg.io") == ("io/__init__.py", None)


def test_cli_names_a_relative_import_and_exits_two(tmp_path, capsys):
    (tmp_path / "util").mkdir()
    (tmp_path / "util" / "h.py").write_text(
        "import os\nfrom . import x\n", encoding="utf-8"
    )
    assert lint_main(["--root", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "util/h.py:2: relative import; the name resolver reads absolute "
        "imports only\n"
    )
