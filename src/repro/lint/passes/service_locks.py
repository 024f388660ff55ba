"""DDA008 — service-path writes flow through the blessed seams.

PR 6–7 proved (under storage chaos + scheduler kills) that the batch
service loses no jobs and double-executes none — but only because every
mutation of durable state goes through three seams in
``repro.io.batch_io`` / ``repro.service.journal``:

* ``write_json_atomic`` / ``write_text_atomic`` / ``copy_file_atomic``
  — tmp file + fsync + ``os.replace`` + directory fsync;
* ``locked_fd`` — advisory-locked read-modify-write;
* the O_APPEND journal — single-``write()`` appended lines.

This pass turns that invariant into a standing gate: inside
:data:`repro.lint.framework.SERVICE_PATH` modules, a direct
``open(path, "w")``, ``Path.write_text``/``write_bytes``, bare
``os.replace``/``os.rename``/``shutil.move``/``shutil.copyfile``, or an
``os.open`` with ``O_WRONLY``/``O_RDWR`` and no ``O_APPEND`` is a
finding. Protocol-level exceptions (the queue's rename-as-claim, where
the rename *is* the atomic operation) carry a reasoned annotation::

    os.rename(src, dst)  # lint: lock-ok[rename-as-claim] -- atomicity IS the claim

Like ``sync-ok`` (and unlike the generic ``host-ok``, which this rule
ignores), a ``lock-ok`` requires a non-empty reason. The seam modules
themselves are exempted via
:data:`repro.lint.framework.MODULE_EXEMPTIONS` — they are the
implementation the rule points everyone else at.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    Finding,
    LintPass,
    SourceModule,
    walk_scoped,
)

#: Write-opening modes for the builtin ``open``.
WRITE_MODES = frozenset("wax+")

#: ``os``/``shutil`` functions that mutate paths directly, by the
#: dotted name a call resolves to however it was imported.
RAW_MUTATORS: dict[str, str] = {
    "os.replace": "use write_json_atomic/write_text_atomic (they fsync "
                  "the tmp file and the directory)",
    "os.rename": "use an atomic-write seam, or annotate a rename-as-claim "
                 "protocol step with lock-ok",
    "shutil.move": "use copy_file_atomic + unlink",
    "shutil.copyfile": "use copy_file_atomic (fsynced)",
    "shutil.copy": "use copy_file_atomic (fsynced)",
    "shutil.copy2": "use copy_file_atomic (fsynced)",
}


def _mode_literal(node: ast.Call) -> str | None:
    """The mode argument of an ``open``-style call, when literal."""
    mode: ast.AST | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return ""  # defaulted: "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: cannot tell


def _os_open_flags(node: ast.Call) -> set[str]:
    """Names of the ``O_*`` flags in an ``os.open`` call."""
    flags: set[str] = set()
    if len(node.args) >= 2:
        for sub in ast.walk(node.args[1]):
            if isinstance(sub, ast.Attribute):
                flags.add(sub.attr)
            elif isinstance(sub, ast.Name):
                flags.add(sub.id)
    return flags


class ServiceLockPass(LintPass):
    code = "DDA008"
    name = "service-write-discipline"
    description = (
        "service-path writes flow through write_json_atomic/"
        "write_text_atomic/locked_fd/the O_APPEND journal; direct "
        "open-for-write or bare os.replace needs '# lint: lock-ok[...]'"
    )
    scope = "service"

    def scan(
        self, module: SourceModule, root: ast.AST
    ) -> Iterator[Finding]:
        for node, function in walk_scoped(root):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, function)

    def _check_call(
        self, module: SourceModule, node: ast.Call, scope: str | None
    ) -> Iterator[Finding]:
        func = node.func
        # builtin open(path, "w"/"a"/"x"/"r+")
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode_literal(node)
            if mode is None or any(c in WRITE_MODES for c in mode):
                shown = "?" if mode is None else mode
                yield from self.governed(
                    module, node, "lock-ok",
                    f"direct open(..., {shown!r}) on the service path; "
                    "route the write through write_json_atomic/"
                    "write_text_atomic or locked_fd",
                    scope,
                )
            return
        # Path.write_text / Path.write_bytes
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text", "write_bytes"
        ):
            yield from self.governed(
                module, node, "lock-ok",
                f"'.{func.attr}()' writes without fsync or atomicity; "
                "use write_text_atomic (tmp + fsync + replace)",
                scope,
            )
            return
        name = module.resolve(func) or ""
        if name in RAW_MUTATORS:
            yield from self.governed(
                module, node, "lock-ok",
                f"bare '{name}' on the service path; {RAW_MUTATORS[name]}",
                scope,
            )
            return
        # os.open(path, O_WRONLY/O_RDWR without O_APPEND)
        if name == "os.open":
            flags = _os_open_flags(node)
            if (
                flags & {"O_WRONLY", "O_RDWR"}
                and "O_APPEND" not in flags
            ):
                yield from self.governed(
                    module, node, "lock-ok",
                    "os.open for write without O_APPEND on the service "
                    "path; use the atomic-write seams or the O_APPEND "
                    "journal pattern",
                    scope,
                )
