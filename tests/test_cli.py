"""Tests for the ``python -m repro`` command-line runner."""

import pytest

from repro.__main__ import build_parser, main
from repro.engine.runner import build_system_from_spec


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.model == "wall"
        assert args.engine == "gpu"
        assert args.steps == 20

    def test_model_and_load_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "slope", "--load", "x"])

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "nonsense"])


class TestBuildSystem:
    @pytest.mark.parametrize("model", ["wall", "rocks", "rubble"])
    def test_bundled_models(self, model):
        args = build_parser().parse_args(["--model", model])
        system = build_system_from_spec(args)
        assert system.n_blocks > 1

    def test_load_roundtrip(self, tmp_path):
        from repro.io.model_io import save_system
        from repro.meshing.slope_models import build_brick_wall

        save_system(build_brick_wall(2, 2), tmp_path / "m")
        args = build_parser().parse_args(["--load", str(tmp_path / "m")])
        system = build_system_from_spec(args)
        assert system.n_blocks == 6  # base + 2 bricks + 3 offset pieces


class TestMain:
    def test_end_to_end_wall(self, capsys):
        rc = main(["--model", "wall", "--steps", "2", "--dynamic",
                   "--no-render"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "equation_solving" in out
        assert "CG iterations total" in out

    def test_summary_counts_the_ladder(self, capsys):
        # attempt 0 of this step escalates once in sweep 3 and starts
        # sweep 4 at the remembered rung; loop 2 gives it up there, its
        # count diverging (three skipped before it stopped at sweep 4)
        main(["--model", "slope", "--steps", "1", "--dt", "2e-3",
              "--no-render"])
        out = capsys.readouterr().out
        assert (
            "solver fallback engaged on 0/1 steps (max rung 0); "
            "1 rung solves skipped"
        ) in out
        # the solve is reported whole: what the thrown-away attempts
        # burned stands next to the accepted attempt's count (1956 in 4,
        # all open_close_oscillation, before two stopped at sweep 4; 62
        # and 1535 at commit 5253207, before each sweep's CG started from
        # the sweep before's solution); causes are listed in the order
        # they first fired
        assert (
            "CG iterations total: 43 in accepted attempts, 1413 in 4 "
            "rejected (2 open_close_divergence, 2 open_close_oscillation);"
        ) in out

    def test_render_included_by_default(self, capsys):
        main(["--model", "wall", "--steps", "1", "--dynamic"])
        out = capsys.readouterr().out
        assert "#" in out  # a block glyph appears in the raster

    def test_serial_engine(self, capsys):
        rc = main(["--model", "wall", "--engine", "serial", "--steps", "1",
                   "--dynamic", "--no-render"])
        assert rc == 0
        assert "E5620" in capsys.readouterr().out

    def test_save(self, tmp_path, capsys):
        rc = main(["--model", "wall", "--steps", "1", "--dynamic",
                   "--no-render", "--save", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out.json").exists()
        assert (tmp_path / "out.npz").exists()

    def test_k20_profile(self, capsys):
        rc = main(["--model", "wall", "--steps", "1", "--dynamic",
                   "--profile", "k20", "--no-render"])
        assert rc == 0
        assert "K20" in capsys.readouterr().out


#: ``--engine`` value -> (class, device profile, domain count) built
#: from ``--profile k20 --n-domains 3`` — what the CLI's own preset
#: chain built before it was routed through ``engine.runner``.
PRESETS = {
    "gpu": ("GpuEngine", "Tesla K20", None),
    "serial": ("SerialEngine", "Xeon E5620 (1 core, serial)", None),
    "hybrid": ("HybridEngine", "Tesla K20", None),
    "domain": ("DomainEngine", "Xeon E5620 (1 core, serial)", 3),
}


@pytest.mark.parametrize("engine", PRESETS)
def test_engine_flag_builds_the_preset(engine, monkeypatch, capsys):
    from repro.engine.base import EngineBase

    built = []
    run = EngineBase.run

    def recording_run(self, steps, **kwargs):
        built.append(self)
        return run(self, steps, **kwargs)

    monkeypatch.setattr(EngineBase, "run", recording_run)
    rc = main(["--model", "wall", "--steps", "1", "--dynamic", "--no-render",
               "--engine", engine, "--profile", "k20", "--n-domains", "3"])
    assert rc == 0
    (made,) = built
    assert (
        type(made).__name__,
        made.device.profile.name,
        getattr(made, "n_domains", None),
    ) == PRESETS[engine]
    assert made.fault_injector is None
    assert made.tracer.enabled is False


@pytest.mark.parametrize("count", ["0", "-1"])
def test_n_domains_below_one_is_a_usage_error(count, capsys):
    """``--n-domains 0`` used to run two domains without saying so."""
    with pytest.raises(SystemExit) as exit_info:
        main(["--model", "wall", "--steps", "1", "--no-render",
              "--engine", "domain", "--n-domains", count])
    assert exit_info.value.code == 2
    assert f"--n-domains must be >= 1, got {count}" in capsys.readouterr().err


def test_make_engine_defaults_to_two_domains():
    """A spec without ``n_domains`` (a ``JobSpec``) still gets 2; one that
    names a count gets exactly that count or ``partition_blocks``' error."""
    from types import SimpleNamespace

    from repro.core.state import SimulationControls
    from repro.engine.runner import make_engine
    from repro.meshing.slope_models import build_brick_wall

    spec = SimpleNamespace(engine="domain", profile="k40")
    system = build_brick_wall(2, 2)
    assert make_engine(spec, system, SimulationControls()).n_domains == 2
    spec.n_domains = 0
    with pytest.raises(ValueError, match="n_domains must be >= 1, got 0"):
        make_engine(spec, system, SimulationControls())


class TestSubcommands:
    """The subcommand restructure must not break any legacy flag."""

    def test_documented_invocation_still_works(self, capsys):
        """Regression for the README/usage example:
        ``python -m repro --model slope --steps 20``."""
        rc = main(["--model", "slope", "--steps", "20", "--no-render"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "20 steps" in out
        assert "CG iterations total" in out

    def test_explicit_run_subcommand_is_equivalent(self, capsys):
        rc = main(["run", "--model", "wall", "--steps", "1", "--dynamic",
                   "--no-render"])
        assert rc == 0
        assert "CG iterations total" in capsys.readouterr().out

    def test_batch_subcommand_dispatches(self, tmp_path, capsys):
        rc = main(["batch", "status", "--dir", str(tmp_path / "b")])
        assert rc == 0
        assert "jobs:" in capsys.readouterr().out

    def test_legacy_flags_after_run_keyword(self, capsys):
        """Every run flag is accepted behind the explicit subcommand."""
        rc = main(["run", "--model", "wall", "--steps", "1", "--dynamic",
                   "--no-render", "--engine", "serial",
                   "--checkpoint-every", "1", "--on-failure", "partial"])
        assert rc == 0


class TestObservabilityFlags:
    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.json"
        rc = main(["--model", "wall", "--steps", "2", "--dynamic",
                   "--no-render", "--trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "equation_solving" in names

    def test_metrics_flag_prints_snapshot(self, capsys):
        rc = main(["--model", "wall", "--steps", "1", "--dynamic",
                   "--no-render", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contacts.VE" in out
        assert "cg.iterations" in out

    def test_report_subcommand_renders_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        main(["--model", "wall", "--steps", "2", "--dynamic",
              "--no-render", "--trace", str(trace)])
        capsys.readouterr()
        rc = main(["report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modelled s" in out
        assert "speedup" in out

    def test_report_json_flag(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.json"
        main(["--model", "wall", "--steps", "1", "--dynamic",
              "--no-render", "--trace", str(trace)])
        capsys.readouterr()
        rc = main(["report", str(trace), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "modules" in payload and payload["steps"] == 1
