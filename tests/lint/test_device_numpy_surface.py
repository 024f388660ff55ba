"""The NumPy the device path uses is a reviewed list.

The kernel-path modules (``repro.lint.framework.KERNEL_PATH``) and every
function the call graph proves they reach are the code a device port
must translate. :data:`SURFACE` pins every ``np.<name>`` and
``np.<name>.<attr>`` that code references, in the way
``results/sync_inventory.json`` pins its sync points: a name used on
the device path for the first time fails :func:`test_surface_is_the_reviewed_list`
at its ``file:line`` until this list gains it in a reviewed diff, and a
name the device path stops using must leave the list too.

Two modules are left out: the scatter seam (``primitives/scatter.py``),
the one place the raw ufunc methods may be called, and the host-side
benchmark-matrix generator (``spmv/synthetic.py``).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.callgraph import build_program
from repro.lint.framework import SourceModule, default_root, walk_files

#: Modules whose NumPy use is not device-path surface.
LEFT_OUT = frozenset({"primitives/scatter.py", "spmv/synthetic.py"})

#: Every NumPy name the device path references (``np.`` stripped).
SURFACE = frozenset({
    "abs", "all", "any", "arange", "arccos", "argmax", "argmin",
    "argsort", "array", "array_equal", "array_split", "asarray",
    "bincount", "clip", "concatenate", "count_nonzero", "cumsum", "diag",
    "diff", "dtype", "einsum", "empty", "empty_like", "errstate", "finfo",
    "flatnonzero", "float64", "full", "hypot", "inf", "int32", "int64",
    "integer", "isfinite", "isin", "isnan", "issubdtype", "lexsort",
    "linalg", "linalg.eigh", "linalg.inv", "linalg.norm", "max",
    "maximum", "minimum", "multiply", "ndarray", "nonzero", "ones",
    "ones_like", "random", "random.Generator", "random.default_rng",
    "repeat", "result_type", "searchsorted", "sign", "sort", "sqrt",
    "stack", "sum", "tile", "unique", "where", "zeros", "zeros_like",
})


def _numpy_refs(node: ast.AST, aliases: set[str]):
    """``(name, line)`` for each ``np.<name>`` and ``np.<name>.<attr>``
    under ``node``; a longer chain counts as its first two parts."""
    inner: set[int] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute) or id(sub) in inner:
            continue
        parts = []
        head: ast.AST = sub
        while isinstance(head, ast.Attribute):
            parts.append(head.attr)
            inner.add(id(head.value))
            head = head.value
        if isinstance(head, ast.Name) and head.id in aliases:
            parts.reverse()
            yield parts[0], sub.lineno
            if len(parts) > 1:
                yield ".".join(parts[:2]), sub.lineno


def device_numpy_surface(root: Path) -> dict[str, list[str]]:
    """NumPy name -> the ``file:line`` sites that reference it on the
    device path of the package at ``root``."""
    modules = [SourceModule(root, p) for p in walk_files(root)]
    program = build_program(root, modules)
    sites: dict[str, list[str]] = {}
    for module in modules:
        if module.rel in LEFT_OUT:
            continue
        if module.is_kernel_path():
            nodes = [module.tree]
        else:
            nodes = [node for _, node, _ in program.closure_defs_in(module.rel)]
        aliases = {n for n, to in module.bindings.items() if to == "numpy"}
        for node in nodes:
            for name, line in _numpy_refs(node, aliases):
                sites.setdefault(name, []).append(f"{module.rel}:{line}")
    return sites


def unreviewed(surface: dict[str, list[str]]) -> list[str]:
    """``file:line: np.<name>`` for every device-path use of a name
    that is not on :data:`SURFACE`."""
    return sorted(
        f"{site}: np.{name}"
        for name, where in surface.items()
        if name not in SURFACE
        for site in where
    )


def test_surface_is_the_reviewed_list():
    surface = device_numpy_surface(default_root())
    new = unreviewed(surface)
    assert not new, (
        "NumPy names new to the device path; add each to SURFACE in a "
        "reviewed diff, or route it through a reviewed seam:\n"
        + "\n".join(new)
    )
    gone = sorted(SURFACE - set(surface))
    assert not gone, f"no longer used on the device path: {gone}"


# ----------------------------------------------------------------------
# planted defects: each must fail the check at its own file and line
# ----------------------------------------------------------------------

def corpus(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def test_vectorize_in_a_kernel_module_is_named(tmp_path):
    root = corpus(tmp_path, {"spmv/k.py": (
        "import numpy as np\n"
        "def f(a, g):\n"
        "    b = np.zeros_like(a)\n"
        "    return b + np.vectorize(g)(a)\n"
    )})
    assert unreviewed(device_numpy_surface(root)) == ["spmv/k.py:4: np.vectorize"]


def test_raw_scatter_outside_the_seam_is_named(tmp_path):
    seam = (
        "import numpy as np\n"
        "def scatter_add(out, idx, v):\n"
        "    np.add.at(out, idx, v)\n"
    )
    root = corpus(tmp_path, {
        "primitives/scatter.py": seam,
        "assembly/k.py": (
            "import numpy as xp\n"
            "def f(out, idx, v):\n"
            "    xp.add.at(out, idx, v)\n"
        ),
    })
    assert unreviewed(device_numpy_surface(root)) == [
        "assembly/k.py:3: np.add", "assembly/k.py:3: np.add.at",
    ]


def test_new_name_in_a_host_helper_a_kernel_calls_is_named(tmp_path):
    root = corpus(tmp_path, {
        "util/h.py": (
            "import numpy as np\n"
            "def helper(a):\n"
            "    return np.fliplr(a)\n"
            "def unreached(a):\n"
            "    return np.flipud(a)\n"
        ),
        "contact/k.py": (
            "from util.h import helper\n"
            "def f(a):\n"
            "    return helper(a)\n"
        ),
    })
    assert unreviewed(device_numpy_surface(root)) == ["util/h.py:3: np.fliplr"]
