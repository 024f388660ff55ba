"""Shared machinery of the ``repro.lint`` static passes.

A *pass* is a small AST visitor producing :class:`Finding` records; this
module provides what every pass shares — the parsed-module wrapper with
its import bindings (rules match the dotted names calls resolve to, not
how a file spells an import) and ``# lint:`` annotation handling, the
kernel-path and service-path configuration, the file walker and the
whole-program call graph driver (:mod:`repro.lint.callgraph`).

Annotation syntax (on the flagged line or the line directly above)::

    for i in range(n):  # lint: host-ok -- documented serial baseline
    for c in range(n_contacts):  # lint: host-ok[DDA001] -- oracle
    rz = float(r @ z)  # lint: sync-ok[cg-convergence] -- host decides
    os.rename(src, dst)  # lint: lock-ok[rename-as-claim] -- atomic

Three annotation tokens exist:

* ``host-ok`` — the generic suppression: bare form silences every
  *generically suppressible* rule on the line, ``host-ok[CODE,...]``
  only the listed rules. It does **not** silence DDA007 or DDA008.
* ``sync-ok[reason]`` — acknowledges an implicit device→host sync
  point (rule DDA007). The reason is mandatory; the site still appears
  in the sync-point inventory.
* ``lock-ok[reason]`` — acknowledges a direct filesystem mutation on
  the service path (rule DDA008), e.g. the queue's rename-as-claim
  protocol where the rename *is* the atomicity mechanism.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field, replace
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator
import re

#: Modules whose code runs (conceptually) on the device: rules DDA001
#: and DDA007 apply here — and, through the call-graph closure,
#: to every function transitively reachable from here.
#: Directory entries end in "/" and match by prefix; file entries match
#: exactly.
KERNEL_PATH = (
    "contact/",
    "assembly/",
    "spmv/",
    "primitives/",
    "gpu/",
    "domain/",
    "solvers/cg.py",
)

#: Modules holding the batch service's durability-critical state: rule
#: DDA008 verifies every filesystem mutation here flows through the
#: blessed seams in ``io/batch_io.py`` (atomic writes, locked fds) or
#: the O_APPEND journal.
SERVICE_PATH = (
    "service/",
    "io/batch_io.py",
)

#: Per-module rule exemptions: path -> (codes, reason). The framework's
#: per-module configuration point — prefer line-level ``host-ok``
#: comments for single sites, and an entry here when an entire module is
#: host-side by design.
MODULE_EXEMPTIONS: dict[str, tuple[frozenset[str], str]] = {
    "spmv/synthetic.py": (
        frozenset({"DDA001", "DDA007"}),
        "host-side workload generator: builds benchmark matrices, "
        "never runs in a kernel-recorded region",
    ),
    "io/batch_io.py": (
        frozenset({"DDA008"}),
        "the seam itself: write_json_atomic/locked_fd/write_text_atomic "
        "are the blessed primitives every service write must use",
    ),
    "service/journal.py": (
        frozenset({"DDA008"}),
        "the O_APPEND journal seam: single-write() append-only lines "
        "are the third blessed write path",
    ),
}

#: The one module allowed to construct RNGs (rule DDA004).
RNG_HOME = "util/rng.py"

#: Rules whose pass manages its own annotation protocol (sync-ok /
#: lock-ok); the generic host-ok suppression filter never silences
#: them, so a bare ``host-ok`` cannot hide an unexplained sync point.
SELF_GOVERNED = frozenset({"DDA007", "DDA008"})

_ANNOTATION_RE = re.compile(
    r"#\s*lint:\s*(?P<token>host-ok|sync-ok|lock-ok)"
    r"(?:\[(?P<arg>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<why>.*))?"
)

#: Marker object: a bare ``host-ok`` suppresses every rule.
_ALL_CODES = None


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    file:
        Path relative to the linted root, POSIX separators.
    line:
        1-based source line.
    code:
        Rule id (``DDA001``..``DDA008``).
    message:
        Human explanation.
    function:
        Dotted qualname of the enclosing function, when known.
    via:
        Call-graph provenance for kernel-closure findings: hops of
        ``(file, line, qualname)`` from the nearest caller back toward
        the kernel-path call site that makes this code device-reachable.
        Empty for findings inside :data:`KERNEL_PATH` modules.
    """

    file: str
    line: int
    code: str
    message: str
    function: str | None = None
    via: tuple[tuple[str, int, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "code": self.code,
            "message": self.message,
            "function": self.function,
            "via": [
                {"file": f, "line": ln, "function": fn}
                for f, ln, fn in self.via
            ],
        }

    def render(self) -> str:
        closure = ""
        if self.via:
            f, ln, fn = self.via[0]
            closure = f" [kernel closure via {f}:{ln} ({fn})]"
        return f"{self.file}:{self.line}: {self.code} {self.message}{closure}"


@dataclass(frozen=True)
class SyncPoint:
    """One (actual or potential) device→host synchronisation site.

    Every entry — annotated or not — lands in the sync-point inventory
    (``repro lint --sync-inventory``): the exhaustive list of host
    decision points a real device backend must fence or restructure.
    Unannotated entries additionally produce a DDA007 finding.
    """

    file: str
    line: int
    kind: str
    detail: str
    function: str | None = None
    annotated: bool = False
    reason: str | None = None
    via: tuple[tuple[str, int, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "kind": self.kind,
            "detail": self.detail,
            "function": self.function,
            "annotated": self.annotated,
            "reason": self.reason,
        }


class LintPass:
    """Base class for a rule. Subclasses set the class attributes and
    implement :meth:`scan` yielding :class:`Finding` (and, for DDA007,
    :class:`SyncPoint`) records for one AST subtree."""

    code: str = "DDA000"
    name: str = ""
    description: str = ""
    #: What the rule visits: ``"kernel"`` — the :data:`KERNEL_PATH`
    #: modules and every function the call graph proves they reach;
    #: ``"program"`` — every module; ``"service"`` — the
    #: :data:`SERVICE_PATH` modules.
    scope: str = "kernel"

    def scan(
        self, module: "SourceModule", node: ast.AST
    ) -> Iterator[Finding | SyncPoint]:
        raise NotImplementedError

    def run(self, module: "SourceModule") -> Iterator[Finding | SyncPoint]:
        yield from self.scan(module, module.tree)

    def finding(self, module: "SourceModule", node: ast.AST,
                message: str, function: str | None = None) -> Finding:
        return Finding(
            file=module.rel, line=getattr(node, "lineno", 1),
            code=self.code, message=message, function=function,
        )

    def governed(self, module: "SourceModule", node: ast.AST, token: str,
                 message: str, function: str | None) -> Iterator[Finding]:
        """The ``sync-ok``/``lock-ok`` protocol of :data:`SELF_GOVERNED`
        rules: a site without a ``token`` annotation is a finding with
        ``message``, and so is an annotation that gives no reason."""
        annotated, reason = module.annotation_reason(
            token, getattr(node, "lineno", 1)
        )
        if annotated and reason is None:
            message = (
                f"{token} annotation gives no reason; write "
                f"'# lint: {token}[reason]' or '# lint: {token} -- reason'"
            )
        if not annotated or reason is None:
            yield self.finding(module, node, message, function)


def walk_scoped(
    node: ast.AST, prefix: str | None = None
) -> Iterator[tuple[ast.AST, str | None]]:
    """Depth-first walk yielding ``(node, enclosing_function)`` pairs.

    The label is the dotted path of ``def`` names enclosing the node
    (``None`` at module level); a ``def`` node itself is labelled with
    its own name, so findings anchored at a definition attribute to it.
    """
    label = prefix
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        label = node.name if prefix is None else f"{prefix}.{node.name}"
    yield node, label
    for child in ast.iter_child_nodes(node):
        yield from walk_scoped(child, label)


class SourceModule:
    """One parsed source file plus its annotation maps."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        # line -> frozenset of codes, or None meaning "all codes"
        self.suppressions: dict[int, frozenset[str] | None] = {}
        #: line -> reason text of a ``sync-ok`` annotation ("" = none
        #: given, which DDA007 rejects)
        self.sync_annotations: dict[int, str] = {}
        #: line -> reason text of a ``lock-ok`` annotation
        self.lock_annotations: dict[int, str] = {}
        for lineno, text in enumerate(self.lines, start=1):
            if "lint:" not in text:
                continue
            for m in _ANNOTATION_RE.finditer(text):
                token = m.group("token")
                arg = (m.group("arg") or "").strip()
                why = (m.group("why") or "").strip()
                if token == "host-ok":
                    codes = (
                        frozenset(
                            c.strip() for c in arg.split(",") if c.strip()
                        )
                        if arg else _ALL_CODES
                    )
                    self._add_suppression(lineno, codes)
                elif token == "sync-ok":
                    reason = arg or why
                    self.sync_annotations[lineno] = reason
                elif token == "lock-ok":
                    self.lock_annotations[lineno] = arg or why
        #: local name -> the dotted name an import anywhere in the file
        #: binds it to (``xp`` -> ``numpy``, ``replace`` -> ``os.replace``;
        #: ``import a.b`` binds ``a`` -> ``a``)
        self.bindings: dict[str, str] = {}
        #: ``(dotted name, line)`` of everything an import statement
        #: loads (``import a.b`` and ``from a import b`` load ``a.b``)
        self.imports: list[tuple[str, int]] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.bindings[local] = alias.name if alias.asname else local
                    self.imports.append((alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # a SyntaxError, so callers handle it with a file
                    # that does not parse
                    raise SyntaxError(
                        f"{self.rel}:{node.lineno}: relative import; the "
                        "name resolver reads absolute imports only"
                    )
                for alias in node.names:
                    if alias.name == "*":  # loads the module, binds no name
                        self.imports.append((str(node.module), node.lineno))
                        continue
                    dotted = f"{node.module}.{alias.name}"
                    self.bindings[alias.asname or alias.name] = dotted
                    self.imports.append((dotted, node.lineno))

    def resolve(self, node: ast.AST) -> str | None:
        """The dotted name a ``Name``/``Attribute`` chain refers to
        through this file's imports (``xp.random.seed`` ->
        ``numpy.random.seed``); ``None`` when its head is not imported."""
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return f"{base}.{node.attr}" if base else None
        if isinstance(node, ast.Name):
            return self.bindings.get(node.id)
        return None

    def _add_suppression(
        self, lineno: int, codes: frozenset[str] | None
    ) -> None:
        existing = self.suppressions.get(lineno, frozenset())
        if codes is _ALL_CODES or existing is _ALL_CODES:
            self.suppressions[lineno] = _ALL_CODES
        else:
            self.suppressions[lineno] = existing | codes

    # ------------------------------------------------------------------
    def _matches_path(self, entries: tuple[str, ...]) -> bool:
        return any(
            self.rel == entry
            or (entry.endswith("/") and self.rel.startswith(entry))
            for entry in entries
        )

    def is_kernel_path(self) -> bool:
        return self._matches_path(KERNEL_PATH)

    def is_service_path(self) -> bool:
        return self._matches_path(SERVICE_PATH)

    def rule_exempt(self, code: str) -> bool:
        entry = MODULE_EXEMPTIONS.get(self.rel)
        return entry is not None and code in entry[0]

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` silenced at ``line`` (same line or line above)?

        Rules in :data:`SELF_GOVERNED` are never silenced here — their
        passes run their own annotation protocol (sync-ok / lock-ok).
        """
        if code in SELF_GOVERNED:
            return False
        for candidate in (line, line - 1):
            if candidate not in self.suppressions:
                continue
            codes = self.suppressions[candidate]
            if codes is _ALL_CODES or code in codes:
                return True
        return False

    def annotation_reason(
        self, kind: str, line: int
    ) -> tuple[bool, str | None]:
        """Look up a ``sync-ok``/``lock-ok`` annotation for ``line``.

        Returns ``(annotated, reason)`` where ``reason`` is ``None``
        when the annotation exists but gives no justification. Checks
        the line itself, then walks up through the contiguous
        comment block directly above it — so a multi-line explanation
        can carry the annotation on its first line.
        """
        table = (
            self.sync_annotations if kind == "sync-ok"
            else self.lock_annotations
        )
        if line in table:
            return True, (table[line] or None)
        j = line - 1
        while j >= 1 and self.lines[j - 1].lstrip().startswith("#"):
            if j in table:
                return True, (table[j] or None)
            j -= 1
        return False, None


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` invocation."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    sync_points: list[SyncPoint] = field(default_factory=list)
    files_scanned: int = 0
    runtime_s: float = 0.0
    pass_runtime_s: dict[str, float] = field(default_factory=dict)

    def counts_by_code(self) -> dict[str, int]:
        out: Counter[str] = Counter(f.code for f in self.findings)
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "runtime_s": self.runtime_s,
            "pass_runtime_s": {
                code: self.pass_runtime_s[code]
                for code in sorted(self.pass_runtime_s)
            },
            "counts": self.counts_by_code(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def sync_inventory(self) -> dict:
        """The machine-readable sync-point inventory.

        Deliberately *stable*: no runtimes, no absolute paths, entries
        sorted by position — so the checked-in copy under ``results/``
        only changes when a host decision point appears, moves, or is
        (re)annotated.
        """
        points = sorted(
            self.sync_points, key=lambda p: (p.file, p.line, p.kind)
        )
        return {
            "version": 1,
            "rule": "DDA007",
            "count": len(points),
            "annotated": sum(1 for p in points if p.annotated),
            "sync_points": [p.to_dict() for p in points],
        }


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def walk_files(root: Path, paths: list[str] | None = None) -> list[Path]:
    """Python files under ``root`` (or the explicit ``paths`` subset)."""
    if paths:
        out = []
        for p in paths:
            candidate = Path(p)
            if not candidate.is_absolute():
                candidate = root / candidate
            if candidate.is_dir():
                out.extend(sorted(candidate.rglob("*.py")))
            else:
                out.append(candidate)
        return out
    return sorted(root.rglob("*.py"))


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def _requalify(local: str | None, top_name: str, qualname: str) -> str:
    """Rebase a pass-local function label onto the closure qualname."""
    if not local or local == top_name:
        return qualname
    if local.startswith(top_name + "."):
        return qualname + local[len(top_name):]
    return qualname + "." + local


def run_lint(
    root: str | Path | None = None,
    *,
    select: set[str] | None = None,
    paths: list[str] | None = None,
) -> LintReport:
    """Run every (selected) pass over every file under ``root``.

    The whole program under ``root`` is always parsed and indexed (the
    call graph needs every edge) even when ``paths`` restricts which
    files are *linted*; closure-aware rules then visit, inside each
    linted non-kernel module, exactly the functions the call graph
    proves reachable from :data:`KERNEL_PATH`.

    Parameters
    ----------
    root:
        Directory whose ``*.py`` files are linted; defaults to the
        installed ``repro`` package. Findings carry root-relative paths.
    select:
        Restrict to these rule codes (default: all registered passes).
    paths:
        Restrict to these files/directories (relative to ``root``).
    """
    from repro.lint.callgraph import build_program
    from repro.lint.passes import ALL_PASSES

    root = Path(root) if root is not None else default_root()
    t0 = time.perf_counter()
    pass_runtime: dict[str, float] = {}

    all_files = walk_files(root, None)
    modules = [SourceModule(root, p) for p in all_files]
    by_path = {m.path.resolve(): m for m in modules}

    t_graph = time.perf_counter()
    program = build_program(root, modules)
    pass_runtime["callgraph"] = time.perf_counter() - t_graph

    if paths:
        lint_modules = []
        for p in walk_files(root, paths):
            module = by_path.get(p.resolve())
            if module is None:
                module = SourceModule(root, p)
            lint_modules.append(module)
    else:
        lint_modules = modules

    findings: list[Finding] = []
    sync_points: list[SyncPoint] = []

    def consume(
        items: Iterable[Finding | SyncPoint],
        module: SourceModule,
        *,
        qualname: str | None = None,
        top_name: str | None = None,
        via: tuple[tuple[str, int, str], ...] = (),
    ) -> None:
        for item in items:
            if qualname is not None and top_name is not None:
                item = replace(
                    item,
                    function=_requalify(item.function, top_name, qualname),
                    via=via,
                )
            if isinstance(item, SyncPoint):
                sync_points.append(item)
            elif not module.suppressed(item.line, item.code):
                findings.append(item)

    for module in lint_modules:
        for lint_pass in ALL_PASSES:
            if select is not None and lint_pass.code not in select:
                continue
            if module.rule_exempt(lint_pass.code):
                continue
            t_pass = time.perf_counter()
            if lint_pass.scope == "service":
                if module.is_service_path():
                    consume(lint_pass.run(module), module)
            elif lint_pass.scope == "program" or module.is_kernel_path():
                consume(lint_pass.run(module), module)
            else:  # a kernel rule visits the closure outside the path
                for qual, node, chain in program.closure_defs_in(module.rel):
                    consume(
                        lint_pass.scan(module, node),
                        module,
                        qualname=qual,
                        top_name=getattr(node, "name", qual),
                        via=tuple(chain),
                    )
            pass_runtime[lint_pass.code] = (
                pass_runtime.get(lint_pass.code, 0.0)
                + time.perf_counter() - t_pass
            )

    findings.sort(key=lambda f: (f.file, f.line, f.code))
    return LintReport(
        root=str(root),
        findings=findings,
        sync_points=sorted(
            sync_points, key=lambda p: (p.file, p.line, p.kind)
        ),
        files_scanned=len(lint_modules),
        runtime_s=time.perf_counter() - t0,
        pass_runtime_s=pass_runtime,
    )
