"""Gate: ``src/repro`` is what an entry point runs or a paper claim needs.

An import walk from the four entry points (function-level imports
included, resolved by ``repro.lint``'s ``Program.locate``) must
reach every module under ``src/repro``; a module it does not reach has
to be a row of DESIGN.md's table *"Modules no entry point reaches"*,
naming the paper claim it backs and a bench or test that exists and
imports it.

``from package import name`` is resolved to the module that *defines*
``name``, not to everything the package ``__init__`` re-exports — so an
``__init__`` keeps nothing alive by listing it. ``repro.lint.passes``
defines ``ALL_PASSES`` itself, which makes its imports (the registered
passes) reached the moment the lint CLI asks for the registry.
"""

import re
import shutil
from functools import lru_cache
from pathlib import Path

import pytest

from repro.lint.callgraph import build_program
from repro.lint.framework import SourceModule, run_lint, walk_files

REPO = Path(__file__).resolve().parent.parent

ENTRY_POINTS = (
    "repro.__main__",
    "repro.service.cli",
    "repro.service.worker",
    "repro.service.http",
)

TABLE_HEADING = "Modules no entry point reaches"


@lru_cache(maxsize=None)
def program(root: Path):
    return build_program(root, [SourceModule(root, p) for p in walk_files(root)])


def dotted(rel: str) -> str:
    """``engine/base.py`` -> ``repro.engine.base``; a package is keyed
    by its own name."""
    name = "repro/" + rel.removesuffix(".py").removesuffix("__init__")
    return name.rstrip("/").replace("/", ".")


def module_files(src: Path) -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    return {dotted(rel): m.path for rel, m in program(src / "repro").modules.items()}


def imported_modules(files: dict[str, Path], path: Path) -> set[str]:
    locate = program(files["repro"].parent).locate
    found = [locate(name) for name, _ in SourceModule(path.parent, path).imports]
    return {dotted(where[0]) for where in found if where}


def reached_modules(files: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(imported_modules(files, files[module]))
    return seen


def table_rows(design: str) -> dict[str, str]:
    """Module -> consumer path of DESIGN.md's table (first and last
    cell of each row, both in backticks)."""
    section = design.split(TABLE_HEADING, 1)[1] if TABLE_HEADING in design else ""
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        named = [re.fullmatch(r"`([^`]+)`", c) for c in (cells[0], cells[-1])]
        if line.startswith("|") and all(named):
            rows[named[0].group(1)] = named[1].group(1)
    return rows


def problems(src: Path, design: str) -> list[str]:
    """One line per module that is neither reached nor a valid row, and
    per row that is stale; empty when the state holds."""
    files = module_files(src)
    reached = reached_modules(files)
    rows = table_rows(design)
    out = []
    for module, consumer in rows.items():
        if module not in files or module in reached:
            out.append(f"{module}: stale row (reached, or no such module)")
        elif not (REPO / consumer).is_file():
            out.append(f"{module}: consumer {consumer} does not exist")
        elif module not in imported_modules(files, REPO / consumer):
            out.append(f"{module}: consumer {consumer} does not import it")
    kept = reached | set(rows)
    for module, path in files.items():
        if path.name == "__init__.py":
            # a package's __init__ runs when anything inside it does
            alive = any(m.startswith(module + ".") for m in kept)
        else:
            alive = module in kept
        if not alive:
            out.append(
                f"{module}: no entry point reaches it and DESIGN.md's "
                f"table '{TABLE_HEADING}' has no row for it"
            )
    return out


DESIGN = (REPO / "DESIGN.md").read_text(encoding="utf-8")


def test_every_module_is_reached_or_backs_a_named_claim():
    assert problems(REPO / "src", DESIGN) == []


def test_voronoi_is_reached_through_the_runner_not_its_package():
    """``repro.meshing`` exports the Voronoi builders lazily (no import
    statement), so the spec runner's ``rubble`` branch is what keeps
    ``repro.meshing.voronoi`` product code."""
    files = module_files(REPO / "src")
    voronoi = "repro.meshing.voronoi"
    assert voronoi not in imported_modules(files, files["repro.meshing"])
    assert voronoi in imported_modules(files, files["repro.engine.runner"])
    assert voronoi in reached_modules(files)


def test_planted_unreached_module_is_reported_by_name(tmp_path):
    shutil.copytree(
        REPO / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    stub = tmp_path / "src" / "repro" / "util" / "planted_stub.py"
    stub.write_text("def unused():\n    return 0\n", encoding="utf-8")
    (found,) = problems(tmp_path / "src", DESIGN)
    assert found.startswith("repro.util.planted_stub: no entry point")


def test_row_whose_consumer_does_not_import_the_module_fails():
    consumer = table_rows(DESIGN)["repro.solvers.precision"]
    doctored = DESIGN.replace(consumer, "benchmarks/bench_pipeline_smoke.py")
    assert problems(REPO / "src", doctored) == [
        "repro.solvers.precision: consumer benchmarks/bench_pipeline_smoke.py "
        "does not import it"
    ]
    missing = DESIGN.replace(consumer, "benchmarks/bench_gone.py")
    assert problems(REPO / "src", missing) == [
        "repro.solvers.precision: consumer benchmarks/bench_gone.py "
        "does not exist"
    ]



def test_planted_relative_import_is_rejected_at_its_line(tmp_path):
    """The gate and the lint run share one resolver: both reject a
    relative import with its message, at its ``file:line``."""
    src = tmp_path / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    stub = src / "repro" / "util" / "planted_stub.py"
    stub.write_text("import numpy as np\nfrom . import x\n", encoding="utf-8")
    with pytest.raises(SyntaxError) as gate:
        problems(src, DESIGN)
    with pytest.raises(SyntaxError) as lint:
        run_lint(src / "repro")
    assert str(gate.value) == str(lint.value) == (
        "util/planted_stub.py:2: relative import; the name resolver reads "
        "absolute imports only"
    )
