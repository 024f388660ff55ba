"""Command line of the benchmark (see README.md for the three forms).

``--workload W --seed N --seconds T --trace 0|1``
    one workload, one clock of metrics; the last stdout line is the
    result object ``BENCHMARK.json``'s consumer reads.
``--seed S --out DIR [--laps N]``
    the full set: every workload, end-to-end and per-layer, laps
    round-robin across the engine workloads; writes ``DIR/bench.json``
    and ``DIR/trace-<workload>.json``.
``compare A/bench.json B/bench.json``
    verdict per (workload, end-to-end metric); exit 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import sys
import time
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
FULL_SET_LAPS = 5


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks.harness", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep adding laps until this much time has passed")
    p.add_argument("--laps", type=int, help="laps at least (never below 3)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics only, 1: per-layer only "
                        "(default: both)")
    p.add_argument("--quick", action="store_true",
                   help="small models, few repeats (the harness's own tests)")
    p.add_argument("--out", type=Path,
                   help="directory for bench.json and the traces")
    return p


def _lap_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.harness lap")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--preset")
    p.add_argument("--steps", type=int)
    p.add_argument("--n-domains", type=int, dest="n_domains")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--quick", action="store_true")
    return p


def _compare_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.harness compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lap"]:
        from benchmarks.harness import lap

        return lap.main(_lap_parser().parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        from benchmarks.harness import compare

        return compare.main(_compare_parser().parse_args(argv[1:]))
    return run(_parser().parse_args(argv))


# ----------------------------------------------------------------------
def load_manifest(root: Path) -> dict:
    """``BENCHMARK.json``: the one list of metric names, units, bounds."""
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        for metric in manifest[section]:
            if not NAME_RE.fullmatch(metric["name"]) or not metric["unit"]:
                raise ValueError(f"BENCHMARK.json: bad metric {metric!r}")
    return manifest


def environment(args, names, min_laps: int) -> dict:
    import numpy

    from benchmarks.harness import THREAD_PINS

    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    return {
        "seed": args.seed, "workloads": list(names), "laps_at_least": min_laps,
        "seconds": args.seconds, "quick": args.quick,
        "nproc": nproc, "loadavg_start": list(load),
        "noisy": load[0] >= nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "thread_pins": THREAD_PINS,
        "started_at": time.time(),
    }


def run(args) -> int:
    from benchmarks.harness import THREAD_PINS

    # before numpy loads its BLAS in this process (direct layer calls)
    os.environ.update(THREAD_PINS)
    from benchmarks.harness import runner
    from benchmarks.harness.runner import MIN_LAPS, ROOT
    from benchmarks.harness.spans import SpanRecorder
    from benchmarks.harness.workloads import WORKLOADS

    manifest = load_manifest(ROOT)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    min_laps = max(MIN_LAPS, args.laps or (
        MIN_LAPS if args.workload else FULL_SET_LAPS
    ))
    envelope = environment(args, names, min_laps)
    if envelope["noisy"]:
        print(f"warning: 1-min load {envelope['loadavg_start'][0]:.2f} >= "
              f"nproc {envelope['nproc']}: this set is marked noisy",
              file=sys.stderr)
    work = (args.out or ROOT / ".bench_work") / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = runner.Checks()
    recorders = {name: SpanRecorder() for name in names}
    report = {name: {} for name in names}
    try:
        if args.trace in (None, 0):
            _end_to_end(args, names, min_laps, work, checks, report, manifest)
        if args.trace in (None, 1):
            _per_layer(args, names, work, checks, report, recorders, manifest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    envelope["loadavg_end"] = list(os.getloadavg())
    envelope["finished_at"] = time.time()
    envelope["elapsed_s"] = envelope["finished_at"] - envelope["started_at"]

    _print_report(report, manifest)
    for failure in checks.failures():
        print(f"CHECK FAILED: {failure['check']}: {failure['detail']}",
              file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, rec in recorders.items():
            if rec.spans:
                rec.write_chrome(args.out / f"trace-{name}.json")
        (args.out / "bench.json").write_text(json.dumps({
            "envelope": envelope, "checks_ok": checks.ok,
            "checks": checks.results, "workloads": report,
        }, indent=1))
    print(f"checks: {len(checks.results) - len(checks.failures())} passed, "
          f"{len(checks.failures())} failed; {envelope['elapsed_s']:.1f} s")
    if args.workload and args.trace is not None:
        section = "end_to_end" if args.trace == 0 else "per_layer"
        entry = report[args.workload]
        print(json.dumps({
            "correct": checks.ok,
            "attempted": max(1, entry["ops"]),
            "failed": entry["failed_ops"],
            "metrics": {
                m["name"]: {
                    "value": _value(entry[section][m["name"]]),
                    "unit": m["unit"],
                }
                for m in manifest[section]
            },
        }))
    return 0 if checks.ok else 1


def _value(entry) -> float:
    return entry["median"] if isinstance(entry, dict) else entry


def _end_to_end(args, names, min_laps, work, checks, report, manifest):
    from benchmarks.harness import runner, stats
    from benchmarks.harness.workloads import (
        ENGINE_WORKLOADS,
        SERVICE_MIN_LAPS,
        SERVICE_WORKLOAD,
    )

    lap_args = dict(quick=args.quick)
    engines = [n for n in names if n in ENGINE_WORKLOADS]
    laps = runner.run_laps(engines, args.seed, work, min_laps=min_laps,
                           seconds=args.seconds, **lap_args) if engines else {}
    results = {}
    for name in engines:
        runner.check_engine_laps(name, laps[name], checks)
        spec = ENGINE_WORKLOADS[name]
        if spec.reference_every_run:
            reference = runner.spawn_lap(
                name, args.seed, work, preset="serial",
                steps=laps[name][0]["ref_steps"], **lap_args,
            )
            if spec.preset == "domain":
                runner.check_bit_equal(name, laps[name][0], reference,
                                       checks, f"{spec.n_domains}-domain")
            else:
                runner.check_reference(name, laps[name][0], reference,
                                       checks, spec.preset)
        results[name] = (
            *runner.engine_end_to_end(name, laps[name]),
            sum(lap["steps"] for lap in laps[name]),
            sum(lap["failed_ops"] for lap in laps[name]),
        )
    if SERVICE_WORKLOAD in names:
        service = runner.run_laps(
            [SERVICE_WORKLOAD], args.seed, work,
            min_laps=max(min_laps, SERVICE_MIN_LAPS),
            seconds=args.seconds, **lap_args,
        )[SERVICE_WORKLOAD]
        laps[SERVICE_WORKLOAD] = service
        results[SERVICE_WORKLOAD] = (
            *runner.service_end_to_end(service, checks),
            sum(lap["ops"] for lap in service),
            sum(lap["failed_ops"] for lap in service),
        )
    for name, (metrics, samples, ops, failed) in results.items():
        entries = {}
        for m in manifest["end_to_end"]:
            present = checks.expect(
                f"{name}: end-to-end metric {m['name']} measured",
                m["name"] in metrics,
            )
            value = metrics.get(m["name"], 0.0)
            entries[m["name"]] = {
                **stats.summary(samples.get(m["name"], [value])),
                "median": value, "unit": m["unit"], "better": m["better"],
                "bound": m["bound"], "measured": present,
            }
        report[name].update(
            end_to_end=entries, ops=ops, failed_ops=failed,
            failed_share=failed / max(1, ops),
            laps=[_trim(lap) for lap in laps[name]],
        )


def _per_layer(args, names, work, checks, report, recorders, manifest):
    from benchmarks.harness import runner
    from benchmarks.harness.workloads import ENGINE_WORKLOADS, measures

    for name in names:
        rec = recorders[name]
        if name in ENGINE_WORKLOADS:
            untraced = (report[name].get("laps") or [None])[0]
            metrics, laps = runner.engine_per_layer(
                name, args.seed, work, rec, checks,
                quick=args.quick, untraced=untraced,
            )
        else:
            metrics, laps = runner.service_per_layer(
                args.seed, work, rec, checks, quick=args.quick,
            )
        listed = {m["name"] for m in manifest["per_layer"]}
        for extra in sorted(set(metrics) - listed):
            checks.expect(f"{name}: per-layer metric {extra} is listed in "
                          "BENCHMARK.json", False)
        values = {}
        for m in manifest["per_layer"]:
            if measures(name, m["name"]):
                checks.expect(
                    f"{name}: per-layer metric {m['name']} measured",
                    m["name"] in metrics,
                )
            values[m["name"]] = float(metrics.get(m["name"], 0.0))
        traced = laps["traced"]
        report[name].update(per_layer=values)
        report[name].setdefault("ops", traced.get("ops", traced.get("steps")))
        report[name].setdefault("failed_ops", traced["failed_ops"])
        report[name]["layer_laps"] = {k: _trim(v) for k, v in laps.items()}


def _trim(lap: dict) -> dict:
    """A lap's raw record without its bulky arrays."""
    return {k: v for k, v in lap.items()
            if k not in ("spans", "centroids_at_ref")}


def _print_report(report, manifest) -> None:
    from benchmarks.harness.workloads import measures

    for name, entry in report.items():
        if "end_to_end" in entry:
            print(f"\n== {name}: end-to-end (tracing off; median of laps "
                  "[q1..q3] n) ==")
            for m in manifest["end_to_end"]:
                e = entry["end_to_end"][m["name"]]
                print(f"{m['name']:<44} {e['median']:>14.6g} {m['unit']:<9}"
                      f" [{e['q1']:.6g}..{e['q3']:.6g}] n={e['n']}  "
                      f"{m['better']} is better, bound {m['bound']:.0%}")
            print(f"{'ops':<44} {entry['ops']:>14} count")
            print(f"{'failed_ops':<44} {entry['failed_ops']:>14} count")
        if "per_layer" in entry:
            print(f"\n== {name}: per-layer (one traced lap + direct calls; "
                  "'-' = layer not run by this workload) ==")
            for m in manifest["per_layer"]:
                value = entry["per_layer"][m["name"]]
                shown = f"{value:>14.6g}" if measures(name, m["name"]) \
                    else f"{'-':>14}"
                print(f"{m['name']:<44} {shown} {m['unit']}")
