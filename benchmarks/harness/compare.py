"""``compare A/bench.json B/bench.json``: one row per (workload,
end-to-end metric), B held against base A.

Verdicts follow the rule the guides set: ``worse`` when B's median is
worse than A's by more than the metric's bound; ``unresolved`` (never
``unchanged``) when the lap-to-lap spread is wider than the bound and
the two sets of laps overlap; ``better`` when B's median is better by
more than A's own quartile spread; else ``unchanged``. Metrics with one
deterministic value per set (the modelled clock) compare exactly.
"""

from __future__ import annotations

import json
from pathlib import Path


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is B's median against A's as a
    signed share of A's (positive = worse)."""
    base = a["median"]
    change = (b["median"] - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    overlap = (
        min(a["values"]) <= max(b["values"])
        and min(b["values"]) <= max(a["values"])
    )
    if max(_spread(a), _spread(b)) > bound and overlap:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < 0 and -worsening > _spread(a):
        return "better", worsening
    return "unchanged", worsening


def compare(path_a: Path, path_b: Path) -> tuple[list[dict], list[str]]:
    """Rows for every pairing both files hold, plus notes on what only
    one of them holds."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, notes = [], []
    for side, doc in (("A", a), ("B", b)):
        if doc["envelope"].get("noisy"):
            notes.append(f"{side} was measured on a loaded host (noisy)")
    if a["envelope"]["seed"] != b["envelope"]["seed"]:
        notes.append("seeds differ: modelled metrics are not comparable")
    for workload, report_a in a["workloads"].items():
        report_b = b["workloads"].get(workload)
        if report_b is None:
            notes.append(f"{workload}: only in A")
            continue
        for name, entry_a in report_a.get("end_to_end", {}).items():
            entry_b = report_b.get("end_to_end", {}).get(name)
            if entry_b is None:
                notes.append(f"{workload}/{name}: only in A")
                continue
            word, worsening = verdict(
                entry_a, entry_b, entry_a["better"], entry_a["bound"]
            )
            rows.append({
                "workload": workload, "metric": name,
                "unit": entry_a["unit"], "better": entry_a["better"],
                "a": entry_a["median"], "a_q1": entry_a["q1"],
                "a_q3": entry_a["q3"], "b": entry_b["median"],
                "b_q1": entry_b["q1"], "b_q3": entry_b["q3"],
                "ratio_b_over_a": (
                    entry_b["median"] / entry_a["median"]
                    if entry_a["median"] else 0.0
                ),
                "bound": entry_a["bound"], "worsening": worsening,
                "verdict": word,
            })
    return rows, notes


def main(args) -> int:
    rows, notes = compare(args.a, args.b)
    print(f"base A = {args.a}\n     B = {args.b}")
    head = (f"{'workload':<14} {'metric':<20} {'A median [q1..q3]':>34} "
            f"{'B median [q1..q3]':>34} {'B/A':>7} {'bound':>6}  verdict")
    print(head)
    for r in rows:
        def cell(side):
            return (f"{r[side]:.6g} [{r[side + '_q1']:.4g}.."
                    f"{r[side + '_q3']:.4g}] {r['unit']}")
        print(f"{r['workload']:<14} {r['metric']:<20} {cell('a'):>34} "
              f"{cell('b'):>34} {r['ratio_b_over_a']:>7.3f} "
              f"{r['bound']:>6.2f}  {r['verdict']}")
    for note in notes:
        print(f"note: {note}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "worse", "unchanged", "unresolved")}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0

