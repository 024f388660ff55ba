"""Planted-violation fixtures for the interprocedural rules.

DDA006 (Array-API portability), DDA007 (reasoned sync points), and
DDA008 (service write discipline) each get one dirty and one clean
snippet per behaviour, plus their annotation protocols — ``sync-ok`` /
``lock-ok`` demand a reason, and the generic ``host-ok`` deliberately
cannot silence them.
"""

from pathlib import Path

from repro.lint.framework import run_lint
from repro.lint.passes.array_api import ARRAY_API, CUPY_EQUIV, NONPORTABLE


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
# DDA006 — Array-API portability
# ----------------------------------------------------------------------

def test_dda006_tables_are_disjoint_and_nonempty():
    assert ARRAY_API and CUPY_EQUIV and NONPORTABLE
    assert not set(ARRAY_API) & CUPY_EQUIV
    assert not set(ARRAY_API) & set(NONPORTABLE)
    assert not CUPY_EQUIV & set(NONPORTABLE)


def test_dda006_allows_tabled_calls(tmp_path):
    root = corpus(tmp_path, {"spmv/k.py": (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    c = np.concatenate([a, b])\n"
        "    d = np.bincount(a)\n"
        "    e = np.linalg.norm(b)\n"
        "    g = np.cumsum(a)\n"
        "    return c, d, e, g\n"
    )})
    report = run_lint(root, select={"DDA006"})
    assert not report.findings


def test_dda006_flags_nonportable_with_rewrite_hint(tmp_path):
    root = corpus(tmp_path, {"spmv/k.py": (
        "import numpy as np\n"
        "def f(a, g):\n"
        "    return np.vectorize(g)(a)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    (finding,) = report.findings
    assert finding.code == "DDA006"
    assert finding.file == "spmv/k.py"
    assert finding.line == 3
    assert finding.function == "f"
    assert "disguised Python loop" in finding.message


def test_dda006_flags_ufunc_methods_toward_scatter_seam(tmp_path):
    root = corpus(tmp_path, {"assembly/k.py": (
        "import numpy as np\n"
        "def f(out, idx, vals, starts):\n"
        "    np.add.at(out, idx, vals)\n"
        "    return np.maximum.reduceat(vals, starts)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    messages = [f.message for f in report.findings]
    assert len(messages) == 2
    assert "scatter_add" in messages[0]
    assert "segment_sum" in messages[1]


def test_dda006_flags_unknown_numpy_names(tmp_path):
    root = corpus(tmp_path, {"spmv/k.py": (
        "import numpy as np\n"
        "def f(a):\n"
        "    return np.totally_made_up(a)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    (finding,) = report.findings
    assert "allowlist" in finding.message


def test_dda006_flags_object_dtype_and_bad_methods(tmp_path):
    root = corpus(tmp_path, {"primitives/k.py": (
        "import numpy as np\n"
        "def f(a):\n"
        '    """``a`` is 1-D."""\n'
        "    b = np.empty(3, dtype=object)\n"
        "    a.tofile('x.bin')\n"
        "    return b\n"
    )})
    report = run_lint(root, select={"DDA006"})
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert any("dtype=object" in m for m in messages)
    assert any(".tofile()" in m for m in messages)


def test_dda006_bad_method_names_skip_module_functions(tmp_path):
    # json.dump shares a name with ndarray.dump; the import binding
    # proves it is not an array method
    root = corpus(tmp_path, {"gpu/k.py": (
        "import json\n"
        "def f(d, fh):\n"
        "    json.dump(d, fh)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    assert not report.findings


def test_dda006_respects_numpy_import_alias(tmp_path):
    root = corpus(tmp_path, {"contact/k.py": (
        "import numpy as xp\n"
        "def f(a):\n"
        "    return xp.vectorize(abs)(a)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    assert codes_at(report, "contact/k.py") == ["DDA006"]


def test_dda006_ignores_host_modules_outside_closure(tmp_path):
    root = corpus(tmp_path, {"util/h.py": (
        "import numpy as np\n"
        "def g(a):\n"
        "    return np.vectorize(abs)(a)\n"
    )})
    report = run_lint(root, select={"DDA006"})
    assert not report.findings


# ----------------------------------------------------------------------
# DDA007 — reasoned sync points
# ----------------------------------------------------------------------

def test_dda007_flags_unannotated_sync_points(tmp_path):
    root = corpus(tmp_path, {"solvers/cg.py": (
        "import numpy as np\n"
        "def f(a, r, z):\n"
        "    x = a.item()\n"
        "    y = float(r @ z)\n"
        "    if np.any(r):\n"
        "        pass\n"
        "    while r[0] > 0:\n"
        "        pass\n"
        "    return x, y\n"
    )})
    report = run_lint(root, select={"DDA007"})
    assert codes_at(report, "solvers/cg.py") == ["DDA007"] * 4
    kinds = sorted(p.kind for p in report.sync_points)
    assert kinds == ["branch", "item", "loop-guard", "scalar-cast"]
    assert all(not p.annotated for p in report.sync_points)


def test_dda007_taint_tracks_assigned_device_results(tmp_path):
    root = corpus(tmp_path, {"contact/k.py": (
        "import numpy as np\n"
        "def f(m):\n"
        "    hits = np.flatnonzero(m)\n"
        "    if hits.size:\n"
        "        pass\n"
        "def g(m, hits):\n"
        "    if hits.size:\n"
        "        pass\n"
    )})
    report = run_lint(root, select={"DDA007"})
    # taint is per-function: g's `hits` parameter is not device-derived
    assert [f.function for f in report.findings] == ["f"]
    (point,) = report.sync_points
    assert "device-derived 'hits'" in point.detail


def test_dda007_sync_ok_with_reason_silences_but_stays_inventoried(
    tmp_path,
):
    root = corpus(tmp_path, {"solvers/cg.py": (
        "def f(r, z):\n"
        "    rz = float(r @ z)  # lint: sync-ok[cg-convergence]\n"
        "    return rz\n"
    )})
    report = run_lint(root, select={"DDA007"})
    assert not report.findings
    (point,) = report.sync_points
    assert point.annotated and point.reason == "cg-convergence"
    inventory = report.sync_inventory()
    assert inventory["count"] == inventory["annotated"] == 1
    assert inventory["sync_points"][0]["reason"] == "cg-convergence"


def test_dda007_sync_ok_without_reason_is_a_finding(tmp_path):
    root = corpus(tmp_path, {"solvers/cg.py": (
        "def f(r, z):\n"
        "    return float(r @ z)  # lint: sync-ok\n"
    )})
    report = run_lint(root, select={"DDA007"})
    (finding,) = report.findings
    assert "gives no reason" in finding.message
    (point,) = report.sync_points
    assert point.annotated and point.reason is None


def test_dda007_generic_host_ok_cannot_silence_it(tmp_path):
    root = corpus(tmp_path, {"solvers/cg.py": (
        "def f(r, z):\n"
        "    return float(r @ z)  # lint: host-ok -- not good enough\n"
    )})
    report = run_lint(root, select={"DDA007"})
    # a sync point needs sync-ok: a bare host-ok does not silence it
    assert [f.code for f in report.findings] == ["DDA007"]


def test_dda007_annotation_reaches_through_comment_block(tmp_path):
    root = corpus(tmp_path, {"solvers/cg.py": (
        "def f(r, z):\n"
        "    # lint: sync-ok[cg-convergence] -- the host loop decides\n"
        "    # when to stop; a device backend fences exactly here\n"
        "    return float(r @ z)\n"
    )})
    report = run_lint(root, select={"DDA007"})
    assert not report.findings
    (point,) = report.sync_points
    assert point.annotated and point.reason == "cg-convergence"


def test_dda007_model_calls_are_not_sync_points(tmp_path):
    root = corpus(tmp_path, {"gpu/k.py": (
        "def f(device, a):\n"
        "    device.launch('k', KernelCounters(flops=int(a.sum())))\n"
        "    return coalesced_transactions(int(a[0]), 8)\n"
    )})
    report = run_lint(root, select={"DDA007"})
    assert not report.findings
    assert not report.sync_points


# ----------------------------------------------------------------------
# DDA008 — service write discipline
# ----------------------------------------------------------------------

def test_dda008_flags_raw_writes_on_service_path(tmp_path):
    root = corpus(tmp_path, {"service/state.py": (
        "import os\n"
        "import shutil\n"
        "from pathlib import Path\n"
        "def f(path, src, dst, data):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(data)\n"
        "    Path(path).write_text(data)\n"
        "    os.replace(src, dst)\n"
        "    shutil.move(src, dst)\n"
        "    fd = os.open(path, os.O_WRONLY | os.O_CREAT)\n"
        "    return fd\n"
    )})
    report = run_lint(root, select={"DDA008"})
    assert codes_at(report, "service/state.py") == ["DDA008"] * 5
    assert all(f.function == "f" for f in report.findings)


def test_dda008_allows_reads_and_append_journal(tmp_path):
    root = corpus(tmp_path, {"service/state.py": (
        "import os\n"
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        data = fh.read()\n"
        "    with open(path, 'rb') as fh:\n"
        "        raw = fh.read()\n"
        "    fd = os.open(path, os.O_WRONLY | os.O_APPEND)\n"
        "    return data, raw, fd\n"
    )})
    report = run_lint(root, select={"DDA008"})
    assert not report.findings


def test_dda008_dynamic_open_mode_is_flagged(tmp_path):
    # a mode the analyzer cannot read is treated as a write
    root = corpus(tmp_path, {"service/state.py": (
        "def f(path, mode):\n"
        "    return open(path, mode)\n"
    )})
    report = run_lint(root, select={"DDA008"})
    (finding,) = report.findings
    assert "open(..., '?')" in finding.message


def test_dda008_lock_ok_with_reason_silences(tmp_path):
    root = corpus(tmp_path, {"service/q.py": (
        "import os\n"
        "def claim(src, dst):\n"
        "    os.rename(src, dst)  # lint: lock-ok[rename-as-claim]\n"
    )})
    report = run_lint(root, select={"DDA008"})
    assert not report.findings


def test_dda008_lock_ok_without_reason_is_a_finding(tmp_path):
    root = corpus(tmp_path, {"service/q.py": (
        "import os\n"
        "def claim(src, dst):\n"
        "    os.rename(src, dst)  # lint: lock-ok\n"
    )})
    report = run_lint(root, select={"DDA008"})
    (finding,) = report.findings
    assert "gives no reason" in finding.message


def test_dda008_generic_host_ok_cannot_silence_it(tmp_path):
    root = corpus(tmp_path, {"service/q.py": (
        "import os\n"
        "def claim(src, dst):\n"
        "    os.rename(src, dst)  # lint: host-ok -- nope\n"
    )})
    report = run_lint(root, select={"DDA008"})
    assert codes_at(report, "service/q.py") == ["DDA008"]


def test_dda008_ignores_modules_off_the_service_path(tmp_path):
    root = corpus(tmp_path, {"util/h.py": (
        "def f(path, data):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(data)\n"
    )})
    report = run_lint(root, select={"DDA008"})
    assert not report.findings
