"""``PYTHONPATH=src python -m benchmarks.harness ...`` (same CLI as run.py)."""

from benchmarks.harness.cli import main

raise SystemExit(main())
