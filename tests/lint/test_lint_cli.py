"""The ``python -m repro lint`` CLI contract.

The CI contract under test: exit 0 only when no finding remains, exit 1
on findings, exit 2 on operator error (unknown rule codes); ``--json``
emits the schema the CI job consumes.
"""

import json
from pathlib import Path

from repro.lint.cli import lint_main
from repro.lint.framework import run_lint

#: A kernel-path module with two DDA001 findings and one DDA007 (the
#: ``float(a.sum())`` is an unannotated sync point).
DIRTY = (
    "def f(a, n):\n"
    "    for i in range(n):\n"
    "        pass\n"
    "    for j in range(n):\n"
    "        pass\n"
    "    return float(a.sum())\n"
)

CLEAN = (
    "def f(a):\n"
    "    return a\n"
)


def make_corpus(tmp_path: Path, source: str = DIRTY) -> Path:
    root = tmp_path / "corpus"
    (root / "contact").mkdir(parents=True)
    (root / "contact" / "k.py").write_text(source, encoding="utf-8")
    return root


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

def test_cli_exit_zero_on_clean_corpus(tmp_path):
    root = make_corpus(tmp_path, CLEAN)
    assert lint_main(["--root", str(root)]) == 0


def test_cli_exit_one_on_dirty_corpus(tmp_path, capsys):
    root = make_corpus(tmp_path)
    assert lint_main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "contact/k.py" in out
    assert "DDA001" in out


def test_cli_exit_two_on_unknown_rule_code(tmp_path):
    root = make_corpus(tmp_path, CLEAN)
    assert lint_main(["--root", str(root), "--select", "DDA999"]) == 2


def test_cli_select_restricts_rules(tmp_path, capsys):
    root = make_corpus(tmp_path)
    assert lint_main(["--root", str(root), "--select", "DDA007"]) == 1
    out = capsys.readouterr().out
    assert "DDA007" in out
    assert "DDA001" not in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in (1, 4, 7, 8):
        assert f"DDA00{i}" in out


# ----------------------------------------------------------------------
# CLI --json schema
# ----------------------------------------------------------------------

def test_cli_json_schema(tmp_path, capsys):
    root = make_corpus(tmp_path)
    assert lint_main(["--root", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["root"] == str(root)
    assert report["files_scanned"] == 1
    assert report["runtime_s"] >= 0
    assert report["counts"] == {"DDA001": 2, "DDA007": 1}
    assert len(report["findings"]) == 3
    assert set(report["pass_runtime_s"]) >= {"callgraph", "DDA001"}
    assert all(t >= 0 for t in report["pass_runtime_s"].values())
    for f in report["findings"]:
        assert set(f) == {
            "file", "line", "code", "message", "function", "via",
        }
        assert f["file"] == "contact/k.py"
        assert f["function"] == "f"
        assert f["via"] == []  # kernel-path module: no closure hops


def test_repo_package_is_lint_clean():
    """The shipped package passes its own linter."""
    report = run_lint()
    assert not report.findings, [f.render() for f in report.findings]
    assert report.files_scanned > 80
