"""Script entry point: ``python3 benchmarks/harness/run.py ...``.

Puts the repository root (for ``benchmarks.harness``) and ``src`` (for
``repro``, which is not installed) on ``sys.path``, whatever the
current directory, then hands over to :func:`benchmarks.harness.cli.main`.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# run as a script, sys.path[0] is this directory: its modules must be
# importable only as benchmarks.harness.*
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.harness.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
