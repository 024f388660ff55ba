"""The harness's own tests, on ``--quick`` sizes.

Run with ``pytest benchmarks/harness`` (outside tier-1: the quick set
spawns about thirty short subprocess laps).
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:  # repro is not installed
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.harness import cli, compare, layers, runner, stats  # noqa: E402
from benchmarks.harness.service import _Campaign, campaign_plan  # noqa: E402
from benchmarks.harness.spans import SpanRecorder  # noqa: E402
from benchmarks.harness.workloads import WORKLOADS, measures  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


# ----------------------------------------------------------------------
# BENCHMARK.json: schema and limits
# ----------------------------------------------------------------------
def test_manifest_schema_and_limits():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert MANIFEST["paths"] == ["benchmarks/harness"]
    assert len(MANIFEST["command"]) <= 32
    for word in MANIFEST["command"]:
        assert len(word) <= 200 and not word.startswith("/") and ".." not in word
    assert (ROOT / MANIFEST["command"][1]).is_file()

    assert 2 <= len(MANIFEST["workloads"]) <= 8
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)

    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert cli.NAME_RE.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_per_layer_metric_has_a_workload_that_measures_it():
    for m in MANIFEST["per_layer"]:
        assert any(measures(w, m["name"]) for w in WORKLOADS), m["name"]


# ----------------------------------------------------------------------
# the quick full set: one run, shared by the tests below
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = cli.main(["--seed", str(SEED), "--quick", "--laps", "3",
                     "--out", str(out)])
    return code, out, json.loads((out / "bench.json").read_text())


def test_quick_set_passes_its_checks(quick_set):
    code, _, bench = quick_set
    assert bench["checks"], "no check ran"
    assert [c for c in bench["checks"] if not c["ok"]] == []
    assert code == 0 and bench["checks_ok"] is True


def test_quick_set_reports_every_metric_with_unit_and_direction(quick_set):
    _, _, bench = quick_set
    assert list(bench["workloads"]) == list(WORKLOADS)
    for workload, report in bench["workloads"].items():
        for m in MANIFEST["end_to_end"]:
            entry = report["end_to_end"][m["name"]]
            assert entry["measured"], (workload, m["name"])
            assert entry["median"] > 0, (workload, m["name"])
            assert entry["q1"] <= entry["q3"] and entry["n"] >= 1
            assert (entry["unit"], entry["better"], entry["bound"]) == (
                m["unit"], m["better"], m["bound"])
        for m in MANIFEST["per_layer"]:
            assert m["name"] in report["per_layer"], (workload, m["name"])
            if not measures(workload, m["name"]):
                assert report["per_layer"][m["name"]] == 0.0
        assert report["ops"] >= 1 and report["failed_ops"] == 0
        # wall-clock metrics carry their per-lap raw values
        assert len(report["end_to_end"]["wall_s_per_step"]["values"]) >= 3
        assert len(report["laps"]) >= 3


def test_quick_set_separates_the_workloads(quick_set):
    """Each layer has a workload that runs it and one that does not."""
    _, _, bench = quick_set
    layer = {w: r["per_layer"] for w, r in bench["workloads"].items()}
    assert layer["domain_slope"]["domain.halo_bytes_per_cg_iter"] > 0
    assert layer["slope_static"]["domain.halo_bytes_per_cg_iter"] == 0
    assert layer["service_http"]["service.jobs_per_s"] > 0
    assert layer["rocks_dynamic"]["service.jobs_per_s"] == 0
    assert layer["service_http"]["stage.equation_solving.wall_share"] == 0
    for w in ("slope_static", "rocks_dynamic", "domain_slope"):
        shares = [layer[w][f"stage.{s}.wall_share"] for s in runner.STAGES]
        assert 0.9 < sum(shares) <= 1.0 + 1e-9, (w, shares)
        assert layer[w]["engine.modelled_speedup_vs_serial"] > 0
    assert layer["domain_slope"]["engine.preset.hybrid.modelled_s"] > 0


def test_quick_set_records_the_environment(quick_set):
    _, _, bench = quick_set
    env = bench["envelope"]
    for key in ("nproc", "loadavg_start", "loadavg_end", "python", "numpy",
                "thread_pins", "seed", "laps_at_least", "noisy"):
        assert key in env, key
    assert env["seed"] == SEED and env["laps_at_least"] == 3
    assert env["thread_pins"]["OMP_NUM_THREADS"] == "1"


def test_quick_set_writes_one_trace_per_workload(quick_set):
    _, out, _ = quick_set
    for workload in WORKLOADS:
        events = json.loads(
            (out / f"trace-{workload}.json").read_text()
        )["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        if workload == "service_http":
            assert {"http.submit", "http.status", "http.result",
                    "scheduler.drain", "probe.free_running"} <= names
        else:
            assert {"import", "model_build", "engine_init", "engine.run",
                    "equation_solving", "layer.spmv.hsbcsr"} <= names
            run = next(e for e in spans if e["name"] == "engine.run")
            stage = next(e for e in spans if e["name"] == "equation_solving")
            assert stage["args"]["parent"] == run["args"]["id"]


def test_noisy_host_is_flagged(monkeypatch):
    monkeypatch.setattr(cli.os, "getloadavg", lambda: (64.0, 1.0, 1.0))
    args = cli._parser().parse_args(["--seed", "0"])
    assert cli.environment(args, WORKLOADS, 3)["noisy"] is True


# ----------------------------------------------------------------------
# the one-workload form the benchmark's consumer runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_workload_form_prints_the_result_object_last(trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / MANIFEST["command"][1]),
         "--workload", "rocks_dynamic", "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST[section]]
    for m in MANIFEST[section]:
        assert set(result["metrics"][m["name"]]) == {"value", "unit"}
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """A directory holding only BENCHMARK.json and the harness."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "harness",
                    tmp_path / "benchmarks" / "harness")
    proc = subprocess.run(
        [sys.executable, MANIFEST["command"][1], "--workload", "service_http",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# checks can fire
# ----------------------------------------------------------------------
def test_determinism_check_fires_on_a_perturbed_seed(tmp_path):
    laps = [
        runner.spawn_lap("rocks_dynamic", seed, tmp_path, quick=True)
        for seed in (SEED, SEED, SEED + 1)
    ]
    same = runner.Checks()
    runner.check_engine_laps("rocks_dynamic", laps[:2], same)
    assert same.ok
    perturbed = runner.Checks()
    runner.check_engine_laps("rocks_dynamic", laps[1:], perturbed)
    assert not perturbed.ok
    assert any("bit-equal" in f["check"] for f in perturbed.failures())


def test_reference_check_fires_on_a_moved_block(tmp_path):
    lap = runner.spawn_lap("rocks_dynamic", SEED, tmp_path, quick=True)
    reference = dict(lap)
    checks = runner.Checks()
    runner.check_reference("rocks_dynamic", lap, reference, checks, "gpu")
    assert checks.ok
    moved = [row[:] for row in lap["centroids_at_ref"]]
    moved[0][0] += 1e-6
    runner.check_reference("rocks_dynamic", {**lap, "centroids_at_ref": moved},
                           reference, checks, "gpu")
    assert not checks.ok


class _LosingClient:
    """Answers every submit with HTTP 500, and counts the calls."""

    def __init__(self):
        self.calls = 0

    def submit(self, spec, dedup=True):
        from repro.service.netclient import ServiceError

        self.calls += 1
        raise ServiceError(500, {"error": "FileNotFoundError"})


def test_service_client_counts_a_500_once_and_does_not_retry():
    variants, waves = campaign_plan(SEED, 4)
    client = _LosingClient()
    campaign = _Campaign(SEED, variants, [client], SpanRecorder())
    op = campaign.submit(0, "fresh", 0, parent=None)
    assert client.calls == 1
    assert op["failed"].startswith("submit: HTTP 500")
    campaign.read(op, parent=None)  # a failed submit is never polled
    assert "t_result" not in op
    kinds = [kind for wave in waves for kind, _ in wave]
    assert kinds.count("fresh") == 7 and set(kinds) == {"fresh", "dedup"}


# ----------------------------------------------------------------------
# planted fault: a 2x slower primitive moves its own metric only
# ----------------------------------------------------------------------
def _primitive_walls(bench, system, contacts, into: dict) -> None:
    layers._primitive_layers(bench, system, contacts)
    for name, value in bench.metrics.items():
        if name.endswith(".wall_us"):
            into.setdefault(name, []).append(value)


def test_planted_slow_primitive_moves_its_own_metric_only(monkeypatch):
    import repro.primitives.radix_sort as radix_sort
    from repro import GpuEngine, build_falling_rocks_model
    from benchmarks.harness.workloads import controls_for

    system = build_falling_rocks_model(n_rock_rows=10, n_rock_cols=30)
    controls = controls_for("rocks_dynamic")
    original = radix_sort.radix_sort_pairs

    def twice_as_slow(*args, **kwargs):
        original(*args, **kwargs)
        return original(*args, **kwargs)

    before: dict[str, list[float]] = {}
    after: dict[str, list[float]] = {}
    with layers.pinned_bench(SpanRecorder(), layers.REPEATS) as bench:
        contacts = layers._contact_layers(
            bench, system, controls, GpuEngine(system, controls)
        )
        # alternating, so that a slow spell of the host lands on both sides
        for _ in range(7):
            _primitive_walls(bench, system, contacts, before)
            with monkeypatch.context() as patch:
                patch.setattr(radix_sort, "radix_sort_pairs", twice_as_slow)
                _primitive_walls(bench, system, contacts, after)
    planted = "primitives.radix_sort_pairs.wall_us"
    assert len(before) == 6 and planted in before
    for name, values in before.items():
        # the host flips between a fast and a slow state from one round
        # to the next (the same call reads 400 or 700 us), so each slowed
        # reading is held against the normal one taken just before it
        moved = statistics.median(
            slowed / normal for slowed, normal in zip(after[name], values)
        )
        if name == planted:
            assert moved > 1.6, (name, values, after[name])
        else:
            assert 0.6 < moved < 1.5, (name, values, after[name])


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _bench_file(path, values_by_metric, seed=0):
    entries = {}
    for m in MANIFEST["end_to_end"]:
        entries[m["name"]] = {
            **stats.summary(values_by_metric[m["name"]]), "unit": m["unit"],
            "better": m["better"], "bound": m["bound"],
        }
    path.write_text(json.dumps({
        "envelope": {"seed": seed, "noisy": False},
        "workloads": {"slope_static": {"end_to_end": entries}},
    }))
    return path


def test_compare_gives_one_verdict_per_pairing(tmp_path, capsys):
    base = {
        "wall_s_per_step": [1.00, 1.01, 0.99, 1.02, 1.00],
        "modelled_s_per_step": [0.25],
        "job_latency_s_p50": [2.0, 2.02, 1.98, 2.01, 2.0],
        "setup_s": [0.5, 0.8, 0.3, 0.9, 0.45],     # spread wider than bound
        "peak_rss_mb": [100.0, 100.5, 99.8, 100.2, 100.1],
    }
    other = {
        "wall_s_per_step": [1.30, 1.31, 1.29, 1.32, 1.30],   # +30 %: worse
        "modelled_s_per_step": [0.20],                        # exact: better
        "job_latency_s_p50": [2.02, 2.03, 1.99, 2.02, 2.01],  # unchanged
        "setup_s": [0.55, 0.7, 0.35, 0.95, 0.5],              # overlapping
        "peak_rss_mb": [100.1, 100.4, 99.9, 100.3, 100.0],
    }
    a = _bench_file(tmp_path / "a.json", base)
    b = _bench_file(tmp_path / "b.json", other)
    rows, _ = compare.compare(a, b)
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts == {
        "wall_s_per_step": "worse", "modelled_s_per_step": "better",
        "job_latency_s_p50": "unchanged", "setup_s": "unresolved",
        "peak_rss_mb": "unchanged",
    }
    assert all(r["ratio_b_over_a"] > 0 and r["bound"] > 0 for r in rows)
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "worse: 1" in capsys.readouterr().out
    assert cli.main(["compare", str(a), str(a)]) == 0
