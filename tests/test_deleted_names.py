"""Deleted names stay deleted.

Each row of :data:`ROWS` names something a change deleted: a regular
expression, the repository paths it must not come back to, what
replaced it and the PR that deleted it. A row fails when its pattern
matches a line under its paths. Four fields cover the rest:

* ``word`` — match whole words only, so ``sort_pairs`` does not hit
  ``radix_sort_pairs``;
* ``struck`` — a doc whose struck-through table rows (lines starting
  ``| ~~``) may keep the name, because they record what replaced it;
* ``skip`` — the one file allowed to hold the name (a seam);
* ``count`` / ``between`` — the pattern must match exactly ``count``
  lines, optionally only those from the first ``between[0]`` line to
  the next ``between[1]`` line of each file.

:func:`test_planted_name_fails_its_row` plants each row's name in a
scratch tree and must see the row fail, so a row that cannot fire is
caught as surely as a name that comes back. History (``CHANGES.md``,
``ROADMAP.md``) lies outside every row's paths.

Run: ``PYTHONPATH=src python -m pytest -q tests/test_deleted_names.py``.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
#: This table names every deleted name; no row searches it.
SELF = Path(__file__).resolve()

EVERYWHERE = ("src", "tests", "benchmarks", "examples", "docs")
#: ``benchmarks/harness`` is frozen, so most rows search only the
#: top-level bench scripts.
WIDE = (
    "src", "tests", "benchmarks/bench_*.py", "benchmarks/common.py",
    "examples", "docs",
)
NO_COMMON = ("src", "tests", "benchmarks/bench_*.py", "examples", "docs")
SRC = ("src",)


@dataclass(frozen=True)
class Row:
    pattern: str
    paths: tuple[str, ...]
    replaced_by: str
    pr: int
    word: bool = False
    struck: str | None = None
    skip: str | None = None
    suffix: str = ""
    count: int | None = None
    between: tuple[str, str] | None = None
    #: text that matches ``pattern``, when unescaping it does not give one
    plant: str | None = None

    @property
    def regex(self) -> re.Pattern:
        body = f"(?<!\\w)(?:{self.pattern})(?!\\w)" if self.word else self.pattern
        return re.compile(body, re.MULTILINE)

    @property
    def name(self) -> str:
        if self.plant is not None:
            return self.plant
        return re.sub(r"\\(.)", r"\1", self.pattern.replace(r"\b", ""))


def rows(patterns, paths, replaced_by, pr, **fields) -> list[Row]:
    return [Row(p, paths, replaced_by, pr, **fields) for p in patterns]


ROWS = [
    *rows(("assemble_serial", "diag_mode"), EVERYWHERE,
          "one Fig-4 assembler, AssemblyPlan", 14),
    *rows(("predict_multi_gpu_time",), EVERYWHERE,
          "the executable multi-device engine, repro.domain", 14),
    *rows(("sell_spmv", "merge_csr_spmv", "ell_spmv"), EVERYWHERE,
          "HSBCSR, the one SpMV format an engine runs", 14),
    *rows((r"repro\.service\.chaosio", r"repro\.service\.chaosnet"),
          EVERYWHERE, "one chaos module, service/chaos.py", 15),
    *rows(("max_retries=",), EVERYWHERE, "one retry budget", 15),
    *rows(("topology_changed", "_plan_contacts"), EVERYWHERE,
          "CandidatePlan.matches, the exact plan gate", 18),
    *rows(("distributed_pcg", "make_domain_preconditioner",
           "_make_rung_preconditioner", "_ensure_split"), WIDE,
          "one CG loop (pcg), one solver seam (_solver_operand), one "
          "preconditioner factory", 19),
    *rows(("DomainMatrix", r"domain_spmv\b", "_price_spmv", r"\._dof\b",
           r"\._moves\b", r"_split\(ex", r"_assemble\(ex"), WIDE,
          "one stacked kernel for every domain", 20),
    *rows(("update_contact_states_serial",), SRC,
          "the vectorised open-close driver; the scalar loop is a test "
          "oracle", 16),
    *rows(("broad_phase_pairs_python",), SRC,
          "the sort-based broad phase; the double loop is a test oracle",
          19),
    *rows(("narrow_phase_oracle",), SRC,
          "CandidatePlan; the old narrow phase is a test oracle", 21),
    *rows(("set_force_sidecar", "_force_sidecar", "stale_lock",
           "LOCK_STALE_AFTER", "stale_after"), NO_COMMON,
          "locked_fd, the platform's advisory lock", 22),
    *rows(("O_EXCL",), ("src/repro/io", "src/repro/service"),
          "locked_fd, the platform's advisory lock", 22),
    *rows((r"repro\.dda3d", "DomainBlockJacobi", "AdditiveSchwarz",
           "run_until_static", "factor_of_safety", "contact_forces",
           "write_baseline", "--baseline"), WIDE,
          "nothing: src/repro holds what an entry point runs or a paper "
          "claim needs; a lint finding is silenced inline", 23),
    *rows(("guard_finite", "guard_penetration", "guard_energy",
           "guard_oscillation", "GUARD_POLICIES", "fail_fast",
           "keep_checkpoints", "rollback_dt_factor", "energy_factor",
           "oscillation_streak", "residual_slack", "default_timeout_s",
           "long_poll_max_s", "metrics_flush_every", "recover=False",
           "cpu_profile", "pcie_profile"), NO_COMMON,
          "module constants: an option with one value in use", 25),
    *rows(("to_jsonl",), NO_COMMON, "one trace format, the Chrome trace",
          25),
    *rows(("TransferPass", "DDA002"), NO_COMMON,
          "DDA007, the sync-point rule that subsumes it", 25),
    *rows(("CpuStages", "_charge_serial_narrow", "WallTimer",
           "speedup_over"), WIDE,
          "charge tables read by the stage bodies written once in "
          "EngineBase", 29),
    *rows(("sort_pairs",), NO_COMMON,
          "one contact-detection body; radix_sort_pairs", 32, word=True),
    *rows(("initialize_contacts_unclassified",), ("src/repro/engine",),
          "classified initialisation; the ablation bench keeps the "
          "baseline", 32),
    *rows(("fixed_point_penalty_scale", "contact_distance_factor"), WIDE,
          "module constants in engine/physics.py", 32),
    *rows(("tension_tolerance", r"\.replay\(", r"def span\("), SRC,
          "one way to reuse a ledger slice", 32),
    *rows(("run_api_soak", "_scheduler_round", "--scheduler-kills",
           "--net-fault-rate", "--sigterm-drains", "--lease-ttl",
           "--max-inflight", "--drain-grace", "max_inflight",
           "drain_grace_s"), NO_COMMON,
          "one soak driver over soak.SCENARIOS", 30),
    *rows(("ScatterSanitizer", "scatter_check", "active_sanitizer",
           "--sanitize", "scatter_duplicate_index", "DDA003", "DDA005",
           "bench_lint"), WIDE,
          "the checks named in the struck-through rows of "
          "docs/static-analysis.md", 28,
          struck="docs/static-analysis.md"),
    *rows(("self_contact", "block_structure", "offdiag_coordinates",
           "offdiag_ordering", "finite_vertices", "rng_state",
           "solver_fallback", "no-solver-fallback"), WIDE,
          "the checks named in the struck-through rows of "
          "docs/robustness.md; the ladder always runs", 37, word=True,
          struck="docs/robustness.md"),
    *rows(("hsbcsr_diag",),
          ("src", "tests", "benchmarks/bench_*.py", "examples"),
          "stage 1 of the two-stage SpMV carries the diagonal products",
          31),
    *rows(("contact_contributions", "render_snapshots",
           r"def update_contact_states\("), SRC,
          "the tests, which alone called them", 33),
    *rows((r"def copy\(",), ("src/repro/core/blocks.py",),
          "copy.deepcopy in the tests", 34),
    *rows((r"np\.sum\(x \* np\.roll\(",), SRC,
          "geometry/polygon.py::shoelace", 34),
    *rows((r"args\.dt", "partition_method",
           r'choices=\("off", "cheap", "full"\)',
           r'not in \("off", "cheap", "full"\)', "rows=8, cols=12"),
          ("src", "tests", "docs", "examples", "benchmarks/bench_*.py"),
          "one option table, service/spec.py::add_run_options", 35),
    *rows((r"def build_system\(",), ("src/repro/__main__.py",),
          "engine/runner.py::execute_spec", 35),
    Row(r"(?<!\w)FAULT_REGISTRY",
        ("src", "benchmarks/bench_*.py", "benchmarks/common.py",
         "examples"),
        "the engines' fault_injector seam and tests/planting.py", 38,
        plant="FAULT_REGISTRY"),
    *rows(("engine/chaos", r"engine\.chaos", "InjectedFault", "make_fault_injector",
           "corrupt_checkpoint_file", "inject_faults", "inject-faults",
           "fault_names", "fault_step", "fault-step"),
          ("src", "benchmarks/bench_*.py", "benchmarks/common.py",
           "examples"),
          "the engines' fault_injector seam and tests/planting.py", 38),
    *rows((r"def alive\(", r"def expire\(", "ServiceConfig.from_dict"),
          ("src", "benchmarks/bench_*.py"),
          "tests/service/lease_helpers.py", 38),
    *rows(("torn_write", "crash_before_rename", "truncated_response",
           "slow_loris", "slow_chunk", "record_unreadable",
           "load_record_retry", "torn_record", '"unreadable"'),
          ("src", "benchmarks/bench_*.py", "examples"),
          "enospc and conn_reset, the outcomes the protocols admit", 40),
    Row(r"^[^\S\n]*(import|from) scipy\.spatial", ("src/repro",),
        "meshing/voronoi.py, the one module that imports it", 24,
        skip="src/repro/meshing/voronoi.py",
        plant="from scipy.spatial import Voronoi"),
    Row(r"^[^\S\n]+(import|from) scipy", ("src/repro",),
        "top-of-module imports (tests/test_import_closure.py)", 24,
        plant="    import scipy.sparse"),
    Row(r"^[^\S\n]*(import|from) scipy\.sparse", ("src/repro",),
        "primitives/scatter.py, which loads the two kernels' extension "
        "file itself, and BlockMatrix.to_csr_arrays", 47,
        plant="from scipy.sparse import bsr_matrix"),
    Row("csgraph", ("src/repro",),
        "a numpy sweep in domain/partition.py", 39),
    Row("_sparsetools", SRC, "primitives/scatter.py, the one seam", 26,
        suffix=".py", skip="src/repro/primitives/scatter.py"),
    Row(r"_expand_candidates\(|_edge_endpoint_indices\(", SRC,
        "one definition and one call each, in CandidatePlan.build", 21,
        count=4, plant="_expand_candidates("),
    Row(r"_expand_candidates\(|_edge_endpoint_indices\(",
        ("src/repro/contact/narrow_phase.py",),
        "CandidatePlan.build, never a per-step call", 21,
        count=2, between=("def build(", "def matches("),
        plant="_expand_candidates("),
    *rows(("ArrayApiPass", "CUPY_EQUIV"), WIDE,
          "tests/lint/test_device_numpy_surface.py", 41),
    Row(r"lint[./]passes[./]array_api", WIDE,
        "tests/lint/test_device_numpy_surface.py", 41,
        plant="repro.lint.passes.array_api"),
    *rows(("DDA006",), WIDE, "tests/lint/test_device_numpy_surface.py",
          41, struck="docs/static-analysis.md"),
    *rows(("NeumannPreconditioner", "JacobiPreconditioner"), WIDE,
          "the paper's three preconditioners: bj, ssor, ilu", 41,
          word=True),
    Row(r"solvers[./]polynomial", WIDE,
        "the paper's three preconditioners: bj, ssor, ilu", 41,
        plant="repro.solvers.polynomial"),
    *rows(("lower_bound", "radix_sort_keys", "check_in_range",
           "counters_by_module", "pipeline_time", "to_markdown",
           "nd_view", "nnz_scalar", "polygon_aabb"), WIDE,
          "the function each wrapped, which its tests now call", 42,
          word=True),
    Row("vv1_angle_tol_deg", WIDE,
        "the module constant VV1_ANGLE_TOL_DEG", 42, word=True,
        skip="tests/contact/narrow_phase_oracle.py"),
    *rows((r"\.second_moments\b", r"\.aabb\b"), WIDE,
          "geometry/polygon.py, on the block's vertices", 42),
    *rows(('"off", "cheap", "full"', 'contract_level="cheap"',
           r'StageContracts\("cheap"'), WIDE,
          "one contract level, full", 42),
    Row(r"self\.full\b", ("src/repro/engine",),
        "one contract level, full", 42),
    Row("--contracts cheap", (*WIDE, ".github", "README.md"),
        "one contract level, full", 42),
    Row(r'Row\("(off|cheap|full)"', ("tests",),
        "one contract level, full (a health guard's row runs off)", 42,
        plant='Row("full"'),
    *rows(("in_closure",), WIDE, "(rel, qual) in program.closure", 43,
          word=True),
    *rows(("_numpy_aliases", "defining_module", "_from_base",
           "_resolve_from", "_resolve_binding", "_resolve_dotted_call",
           "_module_attr", "_dotted_name"), WIDE,
          "one name resolver: SourceModule.bindings and Program.locate",
          43, word=True),
    *rows(("_is_np_random", "_np_call_name", "_dotted_pair"), WIDE,
          "rules match the names SourceModule.resolve gives", 43,
          word=True),
    *rows(("kernel_path_only", "closure_aware", "service_path_only"),
          WIDE, "LintPass.scope", 43, word=True),
    *rows(("_CODE_RE",), WIDE, "nothing: no code read it", 43, word=True),
    Row(r"def _flag\(", ("src/repro/lint",),
        "LintPass.governed, the one sync-ok/lock-ok protocol", 43),
    Row(r"ast\.Import", ("tests/test_reachability.py",
                         "tests/lint/test_device_numpy_surface.py"),
        "SourceModule.imports and Program.locate", 43),
    *rows(("bench_service_soak", "bench_service_http"), (*WIDE, ".github"),
          "batch soak --json (jobs/s, drains) and the harness's "
          "service_http workload (request latency)", 44, word=True),
    *rows((r"BENCH_service\.json", r"BENCH_http\.json"), (*WIDE, ".github"),
          "batch soak --json and the harness's service_http workload", 44),
    *rows(("max_open_close_iterations=", "cg_tolerance=", "cg_max_iterations="),
          WIDE, "the engine/base.py constants MAX_OPEN_CLOSE_ITERATIONS, "
          "CG_TOLERANCE and CG_MAX_ITERATIONS", 44),
    *rows(("as_rows", r"module_times\.total\b", "trace_modules",
           "ratio_cell"), WIDE,
          "ModuleTimes.times and .modelled, one run's ledger on both "
          "clocks, rendered by obs/report.py::render_report", 45),
    Row(r"time_by_module\(", ("src/repro",),
        "result.modeled_module_times(), filled by EngineBase._stage", 45,
        skip="src/repro/gpu/kernel.py"),
    Row(r"device\.records\[", ("src/repro/engine",),
        "EngineBase._stage, both clocks once per invocation", 45,
        plant="device.records[n0:]"),
    *rows(("wall-clock serial/GPU ratio",), (*WIDE, "results"),
          "nothing: a wall-clock row cannot be checked in", 45),
    *rows((r"def _per_step\(", r"def _write_report\("),
          ("benchmarks/bench_table2_case1.py",
           "benchmarks/bench_table3_case2.py"),
          "benchmarks/common.py::modelled_per_step and each table "
          "bench's report()", 45),
    *rows((r"def _row\(", r"def _job_id\("), ("src/repro/service",),
          "one record load per request: HttpJobService._record and "
          "BatchClient.result(record)", 45),
    Row("networkx", (*WIDE, "pyproject.toml", "README.md"),
        "a numpy sweep in domain/partition.py; nothing screens the "
        "contact graph", 48, word=True),
    *rows(("contact_graph", "unanchored_blocks", "contact_clusters",
           "coordination_numbers", "load_path_depth", "adjacency_pairs",
           "METHODS", "device_reduce", "REDUCE_BLOCK", "inclusive_scan",
           "strided_transactions", "shared_bank_conflicts", "SHARED_BANKS",
           "paper_vs_measured_table", "validate_system", "eps_param",
           "KEEP_CHECKPOINTS"), WIDE,
          "nothing: no entry point, bench or example called them "
          "(tests/test_reachability.py now walks definitions)", 48,
          word=True),
    Row(r"repro\.analysis\.topology", WIDE,
        "nothing: no entry point, bench or example called it", 48),
    Row(r"partition_blocks\([^)]*\b(method|contacts)=", WIDE,
        "partition_blocks(system, n_domains, *, margin): the broad-phase "
        "graph, spectral order or stripes read from it", 48,
        plant='partition_blocks(system, 2, method="stripe")'),
]


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError):
        return None


_read_repo = lru_cache(maxsize=None)(_read)


def _files(entry: str, root: Path) -> list[Path]:
    if "*" in entry:
        return sorted(root.glob(entry))
    path = root / entry
    if path.is_dir():
        return sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
    return [path] if path.is_file() else []


def _between(text: str, start: str, stop: str) -> str:
    """The lines from the first ``start`` line to the next ``stop``
    line, inclusive (as ``sed -n '/start/,/stop/p'``), others blanked
    so line numbers survive."""
    out, inside = [], False
    for line in text.split("\n"):
        inside = inside or start in line
        out.append(line if inside else "")
        if inside and stop in line and start not in line:
            inside = False
    return "\n".join(out)


def hits(row: Row, root: Path = REPO) -> list[str]:
    """``file:line: text`` for every line under the row's paths that
    its pattern matches."""
    found = []
    for entry in row.paths:
        for path in _files(entry, root):
            rel = path.relative_to(root).as_posix()
            if path.resolve() == SELF or rel == row.skip:
                continue
            if not rel.endswith(row.suffix):
                continue
            text = _read_repo(path) if root == REPO else _read(path)
            if text is None:
                continue
            if row.between is not None:
                text = _between(text, *row.between)
            lines = text.split("\n")
            seen = set()
            for m in row.regex.finditer(text):
                line_no = text.count("\n", 0, m.start()) + 1
                line = lines[line_no - 1]
                if line_no in seen or (
                    rel == row.struck and line.startswith("| ~~")
                ):
                    continue
                seen.add(line_no)
                found.append(f"{rel}:{line_no}: {line.strip()}")
    return found


def failure(row: Row, root: Path = REPO) -> str | None:
    """Why the row fails under ``root``, or None when it holds."""
    found = hits(row, root)
    if row.count is None:
        return "\n".join(found) or None
    if len(found) == row.count:
        return None
    return f"{len(found)} lines, not {row.count}:\n" + "\n".join(found)


def _id(row: Row) -> str:
    return f"PR{row.pr}-{row.name}"


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_deleted_name_stays_deleted(row):
    why = failure(row)
    assert why is None, (
        f"{row.name!r} was replaced by {row.replaced_by} (PR {row.pr}):\n"
        + why
    )


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_planted_name_fails_its_row(row, tmp_path):
    if row.count is not None:
        # one more matching line than the pin allows, in a real file
        for entry in row.paths:
            for path in _files(entry, REPO):
                dest = tmp_path / path.relative_to(REPO)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, dest)
        first = hits(row, tmp_path)[0]
        rel, line_no = first.split(":")[:2]
        lines = (tmp_path / rel).read_text(encoding="utf-8").split("\n")
        lines.insert(int(line_no), lines[int(line_no) - 1])
        (tmp_path / rel).write_text("\n".join(lines), encoding="utf-8")
        assert failure(row, tmp_path) is not None
        return
    for entry in row.paths:
        root = tmp_path / entry.replace("*", "").replace("/", "_")
        target = root / entry.replace("*", "planted")
        if (REPO / entry).is_dir():
            target = target / f"planted{row.suffix or '.py'}"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f"x = 1\n{row.name}\n", encoding="utf-8")
        assert failure(row, root) is not None, (row.pattern, entry)
        if row.struck:
            # a struck-through row of its doc may keep the name
            doc = root / row.struck
            doc.parent.mkdir(parents=True, exist_ok=True)
            target.unlink()
            doc.write_text(f"| ~~{row.name}~~ | gone |\n", encoding="utf-8")
            assert failure(row, root) is None


def test_every_row_searches_real_paths():
    for row in ROWS:
        assert row.replaced_by and 14 <= row.pr <= 48, row
        for entry in row.paths:
            assert _files(entry, REPO), (row.pattern, entry)
