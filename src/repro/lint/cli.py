"""The ``python -m repro lint`` subcommand.

Exit status is 0 only when no finding remains — the CI contract — and
2 for an unknown rule code or a file that does not parse or holds a
relative import. An inline ``# lint: <rule>-ok[...] -- reason``
annotation is the one way to silence a finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.framework import default_root, run_lint


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Device-path static analysis (rules DDA001, DDA004, "
                    "DDA007, DDA008).",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files/directories to lint (relative to --root; "
                        "default: the whole package)")
    p.add_argument("--root", metavar="DIR",
                   help="lint root (default: the installed repro package)")
    p.add_argument("--select", metavar="CODE,...",
                   help="comma-separated rule codes to run "
                        "(e.g. DDA001,DDA004)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable report on stdout")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--sync-inventory", metavar="FILE", nargs="?",
                   const="-", dest="sync_inventory",
                   help="write the DDA007 sync-point inventory as JSON "
                        "to FILE (or stdout when no FILE is given) and "
                        "exit with the normal lint status")
    return p


def lint_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.lint.passes import ALL_CODES, ALL_PASSES

    if args.list_rules:
        for lint_pass in ALL_PASSES:
            print(f"{lint_pass.code} ({lint_pass.name}): "
                  f"{lint_pass.description}")
        return 0

    select = None
    if args.select:
        select = {c.strip().upper() for c in args.select.split(",")
                  if c.strip()}
        unknown = select - ALL_CODES
        if unknown:
            print(f"unknown rule code(s): {sorted(unknown)}; "
                  f"known: {sorted(ALL_CODES)}", file=sys.stderr)
            return 2

    root = Path(args.root) if args.root else default_root()
    try:
        report = run_lint(root, select=select, paths=args.paths or None)
    except SyntaxError as exc:  # a file that does not parse or resolve
        print(exc, file=sys.stderr)
        return 2

    if args.sync_inventory is not None:
        inventory = json.dumps(report.sync_inventory(), indent=2)
        if args.sync_inventory == "-":
            print(inventory)
        else:
            Path(args.sync_inventory).write_text(
                inventory + "\n", encoding="utf-8"
            )
            print(
                f"sync inventory written: {args.sync_inventory} "
                f"({len(report.sync_points)} point(s))",
                file=sys.stderr,
            )
        return 1 if report.findings else 0

    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_scanned} file(s), "
            f"{report.runtime_s * 1e3:.0f} ms",
            file=sys.stderr,
        )
    return 1 if report.findings else 0
