"""A run is described once: ``python -m repro run`` and ``batch submit``
share one option table, one validation and one path to the engine."""

import dataclasses

import pytest

from repro.__main__ import build_parser, main
from repro.service.cli import build_batch_parser, spec_from_args
from repro.service.spec import JobSpec

#: The JobSpec fields only ``batch submit`` sets; the other 13 are the
#: options both commands take.
SUBMIT_ONLY = {"tag", "kill_at_step", "kill_once"}
SHARED = [
    f.name for f in dataclasses.fields(JobSpec) if f.name not in SUBMIT_ONLY
]

#: argv -> the JobSpec it describes, built by hand. Every shared option
#: is set by at least one row; each row names the engine, whose default
#: is the one place the two commands differ.
CASES = [
    (["--engine", "serial"], JobSpec()),
    (
        ["--model", "slope", "--engine", "hybrid", "--profile", "k20",
         "--steps", "7", "--dt", "2e-3", "--dynamic",
         "--preconditioner", "ssor", "--size", "5", "--seed", "3",
         "--checkpoint-every", "2", "--max-rollbacks", "5",
         "--contracts", "cheap"],
        JobSpec(
            model="slope", engine="hybrid", profile="k20", steps=7,
            time_step=2e-3, dynamic=True, preconditioner="ssor", size=5.0,
            seed=3, checkpoint_every=2, max_rollbacks=5, contracts="cheap",
        ),
    ),
    (
        ["--load", "results/m", "--engine", "gpu",
         "--preconditioner", "ilu", "--contracts", "full"],
        JobSpec(load="results/m", engine="gpu", preconditioner="ilu",
                contracts="full"),
    ),
]


def run_args(argv):
    return build_parser().parse_args(argv)


def submit_args(argv):
    return build_batch_parser().parse_args(["submit", *argv])


def test_thirteen_shared_options():
    assert len(SHARED) == 13


@pytest.mark.parametrize("argv, expected", CASES)
def test_both_parsers_describe_the_same_spec(argv, expected):
    run, submit = run_args(argv), submit_args(argv)
    assert {n: getattr(run, n) for n in SHARED} == {
        n: getattr(submit, n) for n in SHARED
    }
    assert spec_from_args(submit) == expected


#: The values each parser accepted before the table was shared.
ACCEPTED = {
    "--model": ("slope", "rocks", "wall", "rubble"),
    "--profile": ("k40", "k20"),
    "--preconditioner": ("bj", "ssor", "ilu"),
    "--contracts": ("off", "cheap", "full"),
    "--engine": ("gpu", "serial", "hybrid"),
}
REJECTED = {
    "--model": "nonsense",
    "--profile": "h100",
    "--preconditioner": "neumann",
    "--contracts": "sometimes",
    "--engine": "tpu",
}


@pytest.mark.parametrize("parse", [run_args, submit_args])
def test_parsers_accept_exactly_the_old_values(parse):
    for option, values in ACCEPTED.items():
        for value in values:
            parse([option, value])
    for option, value in REJECTED.items():
        with pytest.raises(SystemExit):
            parse([option, value])


def test_domain_engine_and_defaults_differ_by_command():
    assert run_args(["--engine", "domain"]).engine == "domain"
    with pytest.raises(SystemExit):
        submit_args(["--engine", "domain"])
    assert run_args([]).engine == "gpu"
    assert submit_args([]).engine == "serial"
    assert run_args(["--on-failure", "partial"]).on_failure == "partial"
    with pytest.raises(SystemExit):
        run_args(["--on-failure", "ignore"])


def test_run_reaches_the_engine_through_execute_spec(
    monkeypatch, tmp_path, capsys
):
    import repro.engine.runner as runner

    calls = []
    execute_spec = runner.execute_spec

    def spy(spec, **kwargs):
        out = execute_spec(spec, **kwargs)
        calls.append((spec, kwargs, out[1]))
        return out

    monkeypatch.setattr(runner, "execute_spec", spy)
    cp_dir = tmp_path / "cp"
    rc = main(["--model", "wall", "--steps", "2", "--dynamic", "--no-render",
               "--checkpoint-every", "1", "--checkpoint-dir", str(cp_dir),
               "--on-failure", "partial"])
    assert rc == 0
    ((spec, kwargs, engine),) = calls
    assert (spec.engine, spec.steps, spec.time_step) == ("gpu", 2, 1e-3)
    assert set(kwargs) == {"tracer", "resilience"}
    resilience = engine.controls.resilience
    assert (
        resilience.checkpoint_every, resilience.checkpoint_dir,
        resilience.on_failure,
    ) == (1, str(cp_dir), "partial")
    assert list(cp_dir.glob("checkpoint_*.npz"))
    assert "CG iterations total" in capsys.readouterr().out


#: Spec hashes are result-cache keys: sharing the option table moved
#: none of them; retiring the three engine fault fields moved every one
#: (each spec's dict lost three keys), so these are re-recorded from
#: then. The last three are the service benchmark's
#: ``job_spec(v, "reference")``.
PINNED_HASHES = [
    (JobSpec(),
     "585eb23375a9d6b2bc4f4b42a6e52f72d8aa6846a00d1ff82c1a318a8163f480"),
    (JobSpec(model="wall", engine="serial", steps=2, time_step=0.98e-3,
             tag="reference"),
     "cf6a10defaa466af675dfc7b43de8731c52d8ed96aafdfbba501d7aa6d24cb04"),
    (JobSpec(model="wall", engine="serial", steps=2, time_step=0.99e-3,
             tag="reference"),
     "af5641e9be1d115d57e90c404f38e7e35748906dfa5d2f0643356e26d07bf767"),
    (JobSpec(model="wall", engine="serial", steps=2, time_step=1.00e-3,
             tag="reference"),
     "5f1daabf6fd3f48c70146b78ec4ccc2542e09cbb861cc7dc318d76bbcdd02c69"),
]


@pytest.mark.parametrize("spec, digest", PINNED_HASHES)
def test_spec_hashes_unchanged(spec, digest):
    assert spec.spec_hash() == digest
