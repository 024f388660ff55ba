"""Gate: a process imports what its run uses, before the run, once.

Five states, each checked in a fresh interpreter (tier-1's own imports
would mask every one of them):

* no ``scipy*`` module is in a process that builds no Voronoi model:
  ``scipy.spatial`` costs more to load than the rest of an engine
  process's imports together, and the two HSBCSR kernels load from
  their extension file without ``scipy.sparse``'s ≈ 75 modules
  (``primitives/scatter.py``). The lazy exports still bring
  ``scipy.spatial`` in;
* constructing a ``DomainEngine`` never loads ``scipy.sparse.csgraph``:
  the partitioner's connectivity test is a numpy sweep;
* ``engine.run`` adds no module to ``sys.modules`` on any preset, so no
  import lands inside a timed run, and none of them is SciPy's;
* a forked worker reports ``late_imports == 0``: ``service/worker.py``'s
  top-level imports are its closure, and the scheduler held them before
  the fork. The exception is a ``rubble`` worker, which loads
  ``scipy.spatial`` where ``engine/runner.py`` builds the model. The
  scheduler holds no ``scipy*`` module;
* an engine process never loads the linter: ``repro.lint`` is a
  development tool, and nothing on the run path imports it.

Each check is then run against a copy of ``src`` with one late (or
eager) import planted, and must fail: the guards can fire.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: prefix of a check script: the ``scipy*`` modules its process holds
SCIPY = """
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

NO_SPATIAL = SCIPY + """
import repro.engine.serial_engine, repro.engine.gpu_engine
import repro.engine.hybrid_engine, repro.engine.domain_engine
import repro.meshing.slope_models
assert "scipy.spatial" not in sys.modules, "scipy.spatial loaded eagerly"
assert not scipy_modules(), f"engine process loads SciPy: {scipy_modules()}"
"""

DOMAIN_NO_CSGRAPH = """
import sys
from repro.engine.domain_engine import DomainEngine
from repro.meshing import build_brick_wall
engine = DomainEngine(build_brick_wall(rows=2, cols=2), n_domains=2)
assert "repro.domain.partition" in sys.modules
assert "scipy.sparse.csgraph" not in sys.modules, "scipy.sparse.csgraph loaded"
"""

LAZY_EXPORTS = """
import sys
from repro.meshing import build_brick_wall
assert "scipy.spatial" not in sys.modules, "scipy.spatial loaded eagerly"
from repro.meshing import build_voronoi_rubble, voronoi_cells
assert "scipy.spatial" in sys.modules
from repro import build_voronoi_rubble as top_level
import repro.meshing, repro.meshing.voronoi
assert top_level is build_voronoi_rubble is repro.meshing.voronoi.build_voronoi_rubble
assert {"build_voronoi_rubble", "voronoi_cells"} <= set(dir(repro.meshing))
assert build_voronoi_rubble(n_blocks=6, seed=0).n_blocks >= 4
"""

NO_LINT = """
import sys
import repro.engine.runner
lint = sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "lint"])
assert not lint, f"engine process imports the linter: {lint}"
"""

# argv: engine preset
ENGINE_RUN = SCIPY + """
from types import SimpleNamespace
from repro.engine.runner import build_system_from_spec, controls_from_spec, make_engine
from repro.service.spec import JobSpec

spec = SimpleNamespace(**JobSpec(model="slope", size=12.0).to_dict())
spec.engine = sys.argv[1]
engine = make_engine(spec, build_system_from_spec(spec), controls_from_spec(spec))
before = set(sys.modules)
engine.run(steps=2)
late = sorted(set(sys.modules) - before)
assert not late, f"imported inside engine.run: {late}"
assert not scipy_modules(), f"engine process loads SciPy: {scipy_modules()}"
"""

POOL = SCIPY + """
import tempfile
from repro.service.client import BatchClient
from repro.service.pool import WorkerPool
from repro.service.spec import ENGINES, MODELS, JobSpec, JobState


def drain(batch, pool, **spec):
    job = batch.submit(JobSpec(steps=2, size=12.0, **spec))
    pool.run()
    record = batch.queue.load_record(job.job_id)
    assert record.state == JobState.SUCCEEDED, (spec, record.error)
    return record
"""

# argv: "engine:model" pairs, or none for every pair of service/spec.py
FORKED_WORKERS = POOL + """
pairs = [a.split(":") for a in sys.argv[1:]] or [
    (e, m) for e in ENGINES for m in MODELS
]
with tempfile.TemporaryDirectory() as root:
    batch = BatchClient(root)
    pool = WorkerPool(batch.queue, batch.store, batch.scratch_root)
    assert pool._ctx.get_start_method() == "fork"
    late = 0
    for engine, model in pairs:
        record = drain(batch, pool, engine=engine, model=model)
        (attempt,) = record.attempt_log
        # the deferred Voronoi closure loads in the worker that uses it
        deferred = model == "rubble"
        assert (attempt["late_imports"] > 0) == deferred, (
            f"{engine}/{model}: late_imports {attempt['late_imports']}"
        )
        late += attempt["late_imports"]
    assert not scipy_modules(), f"scheduler loads SciPy: {scipy_modules()}"
    counters = pool.metrics.snapshot()["counters"]
    assert counters["batch.worker_late_imports"] == late
    assert counters["batch.dispatched"] == len(pairs)
"""


def check(script: str, *argv: str, src: Path = SRC) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with ``src`` first on its path."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]
        )},
        capture_output=True, text=True, timeout=300,
    )


def passes(script: str, *argv: str) -> None:
    done = check(script, *argv)
    assert done.returncode == 0, done.stderr


def test_engine_process_never_loads_scipy_spatial():
    passes(NO_SPATIAL)


def test_domain_partitioner_loads_with_the_engine():
    passes(DOMAIN_NO_CSGRAPH)


def test_lazy_voronoi_exports_load_it_on_demand():
    passes(LAZY_EXPORTS)


def test_engine_process_never_loads_the_linter():
    passes(NO_LINT)


@pytest.mark.parametrize("engine", ["serial", "gpu", "hybrid", "domain"])
def test_engine_run_imports_nothing(engine):
    passes(ENGINE_RUN, engine)


def test_forked_workers_import_only_the_two_deferred_closures():
    passes(FORKED_WORKERS)


PLANTS = {
    "worker": (
        "service/worker.py",
        "    scratch = Path(scratch)\n    tracer = Tracer(",
        "    import json.tool\n",
        (FORKED_WORKERS, "serial:wall"),
        "serial/wall: late_imports",
    ),
    "engine_run": (
        "engine/base.py",
        "        rcontrols = self.controls.resilience\n        times = ModuleTimes()",
        "        import json.tool\n",
        (ENGINE_RUN, "serial"),
        "imported inside engine.run",
    ),
    "eager_sparse": (
        "assembly/global_matrix.py",
        "\nfrom repro.gpu.kernel import VirtualDevice\n",
        "\nfrom scipy.sparse import bsr_matrix",
        (NO_SPATIAL,),
        "engine process loads SciPy: ['scipy'",
    ),
    "eager_voronoi": (
        "meshing/__init__.py",
        "\n_LAZY = {",
        "from repro.meshing.voronoi import build_voronoi_rubble\n",
        (NO_SPATIAL,),
        "scipy.spatial loaded eagerly",
    ),
    "eager_partition": (
        "domain/partition.py",
        "\nfrom repro.core.blocks import BlockSystem\n",
        "\nimport scipy.sparse.csgraph",
        (DOMAIN_NO_CSGRAPH,),
        "scipy.sparse.csgraph loaded",
    ),
    "engine_imports_lint": (
        "primitives/compact.py",
        "from repro.primitives.radix_sort import radix_sort_pairs\n",
        "import repro.lint\n",
        (NO_LINT,),
        "engine process imports the linter",
    ),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_a_planted_import_fails_its_check(plant, tmp_path):
    """Each guard fires: one import planted in a copy of ``src`` — late
    in the worker path, late in ``engine.run``, eager in a package or in
    the partitioner, the linter on the kernel path — turns the matching
    check red and names what it found."""
    path, anchor, planted, run, message = PLANTS[plant]
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "repro" / path
    text = target.read_text(encoding="utf-8")
    assert text.count(anchor) == 1, f"anchor moved in {path}"
    target.write_text(text.replace(anchor, planted + anchor), encoding="utf-8")
    done = check(*run, src=src)
    assert done.returncode != 0
    assert message in done.stderr
