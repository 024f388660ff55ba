"""``python -m repro report`` — paper-style tables from traces and dirs.

Given a Chrome trace file written by ``--trace``, renders the
Table-II/III-style per-module report: measured wall seconds, modelled
device seconds, and the measured/modelled speedup column, plus the
step-level aggregates (steps, CG iterations, open–close iterations,
contacts) carried on the ``"step"`` summary spans. ``python -m repro
run`` prints the same table from its result's ledger
(:func:`run_report`).

Given a *batch directory* (the root a :class:`BatchClient` manages),
renders the service operator view instead: queue depths and per-state
job counts, journal event tallies, cache hit rates, and the merged
counters of every scheduler and HTTP-server process that persisted a
metrics snapshot under ``<dir>/metrics/`` — storage faults injected
and absorbed (``batch.io_faults.*``), lease expiries and fenced zombie
writes, modules a worker had to import after its fork
(``batch.worker_late_imports``), HTTP request/shed/rate-limit/drain
tallies and injected network faults (``http.*``).

::

    python -m repro --model slope --steps 25 --trace trace.json
    python -m repro report trace.json [--json]
    python -m repro report results/soak [--json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from collections import Counter
from pathlib import Path

from repro.obs.tracer import Tracer
from repro.util.tables import Table
from repro.util.timing import PIPELINE_MODULES


def build_report(tracer: Tracer) -> dict:
    """Aggregate a trace into the report payload (JSON-safe)."""
    steps = [s.extras for s in tracer.step_spans()]
    return module_report(tracer.module_summary(), steps, tracer.meta)


def run_report(result, meta: dict) -> dict:
    """The same payload from a run's ledger, ``result.module_times``
    (``spans`` is ``None``: it sums invocations without counting them)."""
    times = result.module_times
    summary = {
        m: {"spans": None, "wall_s": wall, "device_s": times.modelled[m]}
        for m, wall in times.times.items()
    }
    steps = [dataclasses.asdict(s) for s in result.steps]
    return module_report(summary, steps, meta)


def module_report(summary: dict, steps: list[dict], meta: dict) -> dict:
    """The report payload from per-module ``{spans, wall_s, device_s}``
    totals and per-step :class:`~repro.engine.results.StepRecord` fields."""
    ordered = [m for m in PIPELINE_MODULES if m in summary]
    ordered += [m for m in sorted(summary) if m not in PIPELINE_MODULES]
    modules = {}
    for name in ordered:
        d = summary[name]
        ratio = d["wall_s"] / d["device_s"] if d["device_s"] > 0.0 else None
        modules[name] = {
            "spans": d["spans"],
            "wall_s": d["wall_s"],
            "modelled_s": d["device_s"],
            # the measured-wall over modelled-device ratio
            "wall_modelled_ratio": ratio,
        }
    total_wall = sum(d["wall_s"] for d in summary.values())
    total_dev = sum(d["device_s"] for d in summary.values())
    total_ratio = total_wall / total_dev if total_dev > 0.0 else None
    return {
        "meta": dict(meta),
        "modules": modules,
        "total": {
            "wall_s": total_wall,
            "modelled_s": total_dev,
            "wall_modelled_ratio": total_ratio,
        },
        "steps": len(steps),
        "cg_iterations": sum(int(s.get("cg_iterations", 0)) for s in steps),
        "open_close_iterations": sum(
            int(s.get("open_close_iterations", 0)) for s in steps
        ),
        "max_contacts": max(
            (int(s.get("n_contacts", 0)) for s in steps), default=0
        ),
    }


def render_report(report: dict) -> str:
    """Text-render a :func:`module_report` payload as the module table."""
    meta = report.get("meta", {})
    title_bits = [
        str(meta[k]) for k in ("engine", "model", "profile") if k in meta
    ]
    title_bits.append(f"{report['steps']} steps")
    table = Table(
        f"per-module report ({', '.join(title_bits)})",
        ["module", "spans", "measured s", "modelled s",
         "speedup (wall/modelled)"],
    )

    def cell(value, fmt="{}"):
        return "-" if value is None else fmt.format(value)

    for name, row in report["modules"].items():
        table.add_row([
            name, cell(row["spans"]), row["wall_s"], row["modelled_s"],
            cell(row["wall_modelled_ratio"], "{:.4g}x"),
        ])
    spans = [r["spans"] for r in report["modules"].values()]
    total = report["total"]
    table.add_row([
        "total", cell(None if None in spans else sum(spans)),
        total["wall_s"], total["modelled_s"],
        cell(total["wall_modelled_ratio"], "{:.4g}x"),
    ])
    return "\n".join([
        table.render(),
        f"steps: {report['steps']}; "
        f"CG iterations: {report['cg_iterations']}; "
        f"open-close iterations: {report['open_close_iterations']}; "
        f"max contacts: {report['max_contacts']}",
    ])


def build_service_report(root: str | Path) -> dict:
    """Aggregate a batch directory into the operator view (JSON-safe).

    Merges the metrics snapshots every scheduler (``sched-<pid>.json``)
    and HTTP server (``http-<pid>.json``) persisted under
    ``<root>/metrics/`` — the processes are gone, their counters
    remain — and pairs them with the live queue/journal/cache state.
    """
    from repro.io.batch_io import read_json
    from repro.obs.metrics import merge_snapshots
    from repro.service.client import overview
    from repro.service.queue import JobQueue
    from repro.service.store import ResultStore

    root = Path(root)
    queue = JobQueue(root / "queue")
    snap_paths = sorted((root / "metrics").glob("*.json"))
    snaps = [read_json(p) or {} for p in snap_paths]
    merged = merge_snapshots(*snaps) if snaps else {}
    events, torn = queue.journal.events()
    event_counts = Counter(event.get("event", "?") for event in events)
    return {
        "root": str(root),
        **overview(queue, ResultStore(root / "store"), queue.records()),
        "journal": {
            "events": len(events),
            "torn_lines": torn,
            "event_counts": dict(sorted(event_counts.items())),
        },
        "metrics_files": [p.name for p in snap_paths],
        "counters": merged.get("counters", {}),
        "gauges": merged.get("gauges", {}),
    }


def render_service_report(report: dict) -> str:
    """Text-render a :func:`build_service_report` payload."""
    from repro.service.client import render_overview

    lines = [f"batch service report: {report['root']}",
             *render_overview(report)]
    journal = report["journal"]
    lines.append(
        f"journal: {journal['events']} events"
        + (f" ({journal['torn_lines']} torn line(s))"
           if journal["torn_lines"] else "")
    )
    for name, count in journal["event_counts"].items():
        lines.append(f"  {name:<16}: {count}")
    counters = report["counters"]
    if counters:
        table = Table(
            f"service counters (merged from {len(report['metrics_files'])} "
            "process snapshot(s))",
            ["counter", "value"],
        )
        for prefix in ("batch.", "http."):
            for name in sorted(c for c in counters if c.startswith(prefix)):
                table.add_row([name, counters[name]])
        for name in sorted(
            c for c in counters
            if not c.startswith(("batch.", "http."))
        ):
            table.add_row([name, counters[name]])
        lines.append(table.render())
    else:
        lines.append(
            "no metrics snapshots under <dir>/metrics/ — run a scheduler "
            "or HTTP server against this directory first"
        )
    return "\n".join(lines)


def report_main(argv: list[str] | None = None) -> int:
    """The ``report`` subcommand entry point."""
    p = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a per-module table from a --trace file, or "
                    "the service operator view from a batch directory.",
    )
    p.add_argument("trace", metavar="TRACE_OR_DIR",
                   help="Chrome trace file written by --trace, "
                        "or a batch directory (queue + store + metrics)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the report as JSON instead of a table")
    args = p.parse_args(argv)
    if Path(args.trace).is_dir():
        report, render = build_service_report(args.trace), render_service_report
    else:
        try:
            tracer = Tracer.load(args.trace)
        except (OSError, ValueError, KeyError) as err:
            print(f"cannot read trace {args.trace!r}: {err}")
            return 1
        report, render = build_report(tracer), render_report
        if not report["modules"]:
            print(f"trace {args.trace!r} contains no module spans")
            return 1
    print(json.dumps(report, indent=2, sort_keys=True) if args.as_json
          else render(report))
    return 0
