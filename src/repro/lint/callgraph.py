"""Whole-program call graph and the transitive *kernel closure*.

The per-module passes (DDA001–003) see one file at a time, so a
kernel-path function could historically launder a violation through a
helper in a non-kernel module and stay green. This module closes that
hole: it resolves imports and calls across the whole package, seeds a
reachability sweep from every function defined under
:data:`~repro.lint.framework.KERNEL_PATH`, and hands the framework the
set of *closure* functions — helpers in host modules that are
transitively reachable from device code and must therefore honour the
same contract.

Resolution is deliberately static and conservative:

* each file's imports bind local names to dotted names
  (:attr:`~repro.lint.framework.SourceModule.bindings`; a relative
  import is rejected at its line), which :meth:`Program.locate` maps to
  modules, functions or classes, chasing ``__init__`` re-exports;
* ``name(...)`` resolves through enclosing-function locals,
  module-level definitions, then import bindings;
* ``m.f(...)`` resolves through module bindings ("calls through module
  attributes"), class bindings (``Class.method``), ``self.``/``cls.``
  lookup through the textual base-class chain, and — as a last resort
  — a *unique-name* fallback: an attribute call whose name is defined
  exactly once in the whole program (and is not a common container
  method) is assumed to target that definition;
* cycles are handled by an ordinary visited set — the closure of a
  recursive clique is the clique.

External names (``np.sum``, ``math.ceil``) never resolve, so the graph
only ever contains repo code. Every closure member carries a
*provenance chain* back to a kernel-path seed so findings can point at
both the definition and the device-side call site that drags it in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.lint.framework import SourceModule

#: (module rel path, dotted qualname) — the identity of one function.
#: Module-level statements live under the pseudo-function ``<module>``.
FuncKey = tuple[str, str]

#: What a dotted name denotes: ("mod", rel), ("def", rel, qual) or
#: ("cls", rel, qual).
Target = tuple[str, ...]

#: Qualname of the pseudo-function holding module-level statements.
MODULE_SCOPE = "<module>"

#: Attribute names never resolved through the unique-name fallback:
#: common container/stdlib methods whose accidental uniqueness in the
#: repo must not create edges (``d.get(...)`` is not a call into the
#: one ``def get`` somebody wrote).
FALLBACK_BLOCKLIST = frozenset({
    "add", "append", "clear", "close", "copy", "count", "discard",
    "extend", "get", "index", "insert", "items", "join", "keys", "open",
    "pop", "popitem", "read", "remove", "setdefault", "sort", "split",
    "startswith", "endswith", "strip", "update", "values", "write",
    # ndarray methods that exist on every array the pipeline moves
    "all", "any", "astype", "clip", "max", "mean", "min", "ravel",
    "reshape", "sum", "transpose", "tolist", "item",
})


@dataclass(frozen=True)
class CallSite:
    """One resolved call (or function reference) inside a function."""

    callee: FuncKey
    line: int


@dataclass(frozen=True)
class Provenance:
    """Why a function is in the kernel closure: who called it, where."""

    caller: FuncKey
    line: int


class _ModuleIndex:
    """Per-module definition tables feeding the program-wide resolution
    (the import bindings are :attr:`SourceModule.bindings`)."""

    def __init__(self, module: "SourceModule") -> None:
        self.module = module
        #: dotted qualname -> def node (functions and methods)
        self.defs: dict[str, ast.AST] = {}
        #: class qualname -> {method name -> method qualname}
        self.classes: dict[str, dict[str, str]] = {}
        #: class qualname -> base-class name expressions (textual)
        self.class_bases: dict[str, list[ast.expr]] = {}
        self._collect(module.tree, prefix="")

    # ------------------------------------------------------------------
    def _collect(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                self.defs[qual] = child
                self._collect(child, prefix=qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                qual = prefix + child.name
                self.classes[qual] = {}
                self.class_bases[qual] = list(child.bases)
                for item in child.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        mqual = qual + "." + item.name
                        self.defs[mqual] = item
                        self.classes[qual][item.name] = mqual
                        self._collect(item, prefix=mqual + ".<locals>.")
                    else:
                        self._collect(item, prefix=qual + ".")
            else:
                self._collect(child, prefix=prefix)


class Program:
    """The resolved whole-program call graph plus its kernel closure.

    Build with :func:`build_program`. The framework asks for
    :meth:`closure_defs_in` (top-most closure function nodes in one
    non-kernel module) and :meth:`entry_chain` (provenance hops back to
    the kernel-path seed, for finding attribution); :meth:`locate` is
    the one answer to what an imported dotted name refers to.
    """

    def __init__(self, root: Path, modules: list["SourceModule"]) -> None:
        self.root = root
        self.root_pkg = root.name
        self.modules: dict[str, "SourceModule"] = {
            m.rel: m for m in modules
        }
        self.indexes: dict[str, _ModuleIndex] = {
            m.rel: _ModuleIndex(m) for m in modules
        }
        #: every function in the program
        self.functions: dict[FuncKey, ast.AST | None] = {}
        #: last-qualname-component -> keys defining it (fallback index)
        self._by_name: dict[str, list[FuncKey]] = {}
        for rel, index in self.indexes.items():
            self.functions[(rel, MODULE_SCOPE)] = None
            for qual, node in index.defs.items():
                key = (rel, qual)
                self.functions[key] = node
                self._by_name.setdefault(
                    qual.rsplit(".", 1)[-1], []
                ).append(key)
        self.edges: dict[FuncKey, list[CallSite]] = {}
        for rel in self.indexes:
            self._build_edges(rel)
        self.closure: dict[FuncKey, Provenance | None] = {}
        self._compute_closure()

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve_module(self, dotted: str) -> str | None:
        """Map a dotted module name to a root-relative path (or None).

        A root that is a package (it holds ``__init__.py``) names its
        modules ``<root>.a.b``; a root of loose modules names them
        ``a.b``."""
        parts = dotted.split(".")
        if parts[0] == self.root_pkg:
            parts = parts[1:]
        elif "__init__.py" in self.modules:
            return None
        for candidate in (
            "/".join(parts) + ".py",
            "/".join([*parts, "__init__.py"]),
        ):
            if candidate in self.modules:
                return candidate
        return None

    def locate(self, dotted: str) -> tuple[str, str | None] | None:
        """Where an imported dotted name lives: ``(rel, None)`` for a
        module, ``(rel, name)`` for a name in one, ``None`` outside the
        program. A name a package ``__init__`` imports is followed to
        the module it names."""
        rel = self.resolve_module(dotted)
        if rel is not None:
            return rel, None
        base, _, name = dotted.rpartition(".")
        rel = self.resolve_module(base) if base else None
        if rel is None:
            return None
        target = self.modules[rel].bindings.get(name)
        if rel.endswith("__init__.py") and target and target != dotted:
            return self.locate(target)
        return rel, name

    def _target(
        self, dotted: str, _seen: frozenset = frozenset()
    ) -> Target | None:
        """What a dotted name denotes: ``("mod", rel)``, ``("def", rel,
        qual)``, ``("cls", rel, qual)``, or ``None`` outside the program.
        Re-exports are chased through the defining module's imports."""
        found = self.locate(dotted)
        if found is None:
            # ``a.b.Class.method``: a method of a class the prefix names
            base, _, attr = dotted.rpartition(".")
            owner = self._target(base) if base else None
            if owner is None or owner[0] != "cls":
                return None
            method = self._class_method(owner[1], owner[2], attr)
            return None if method is None else ("def", *method)
        rel, name = found
        if name is None:
            return ("mod", rel)
        index = self.indexes[rel]
        if name in index.defs:
            return ("def", rel, name)
        if name in index.classes:
            return ("cls", rel, name)
        target = self.modules[rel].bindings.get(name)
        if target is None or (rel, name) in _seen:
            return None
        return self._target(target, _seen | {(rel, name)})

    def _callable(self, target: Target | None) -> FuncKey | None:
        """The function a call of ``target`` runs (a class runs its own
        ``__init__``)."""
        if target is None or target[0] == "mod":
            return None
        if target[0] == "def":
            return (target[1], target[2])
        init = self.indexes[target[1]].classes[target[2]].get("__init__")
        return (target[1], init) if init else None

    # ------------------------------------------------------------------
    # edge construction
    # ------------------------------------------------------------------
    def _build_edges(self, rel: str) -> None:
        index = self.indexes[rel]
        scopes: list[tuple[str, ast.AST]] = [(MODULE_SCOPE, index.module.tree)]
        scopes.extend(index.defs.items())
        # each def is its own scope; _walk_scope stops at nested defs so
        # every statement attaches to its innermost enclosing function
        for qual, node in scopes:
            caller = (rel, qual)
            sites = self.edges.setdefault(caller, [])
            body = (
                node.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
                ) else []
            )
            for stmt in body:
                for sub in self._walk_scope(stmt):
                    for site in self._resolve_node(rel, qual, sub):
                        sites.append(site)

    def _walk_scope(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk a statement without descending into nested defs/classes
        (those are their own scopes with their own edges)."""
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            yield from self._walk_scope(child)

    def _resolve_node(
        self, rel: str, scope: str, node: ast.AST
    ) -> Iterator[CallSite]:
        line = getattr(node, "lineno", 1)
        if isinstance(node, ast.Call):
            target = self._resolve_callable(rel, scope, node.func)
            if target is not None:
                yield CallSite(target, line)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            # bare function reference (callback, table entry, sorted key)
            target = self._resolve_name_ref(rel, scope, node.id)
            if target is not None:
                yield CallSite(target, line)

    def _local_def(self, rel: str, scope: str, name: str) -> str | None:
        """Find ``name`` as a def visible from ``scope`` in ``rel``."""
        index = self.indexes[rel]
        # nested defs of enclosing functions, innermost first
        parts = scope.split(".<locals>.")
        while parts:
            candidate = ".<locals>.".join(parts + [name]) if parts != [
                MODULE_SCOPE
            ] else name
            if candidate in index.defs:
                return candidate
            parts.pop()
        if name in index.defs:
            return name
        return None

    def _resolve_name_ref(
        self, rel: str, scope: str, name: str
    ) -> FuncKey | None:
        local = self._local_def(rel, scope, name)
        if local is not None:
            return (rel, local)
        if name in self.indexes[rel].classes:
            return self._callable(("cls", rel, name))
        target = self.modules[rel].bindings.get(name)
        return self._callable(self._target(target)) if target else None

    def _class_method(
        self, rel: str, cls: str, method: str, *, _depth: int = 0
    ) -> FuncKey | None:
        """Look up ``method`` on class ``cls`` (textual MRO walk)."""
        index = self.indexes.get(rel)
        if index is None or _depth > 8:
            return None
        methods = index.classes.get(cls)
        if methods is None:
            return None
        if method in methods:
            return (rel, methods[method])
        for base in index.class_bases.get(cls, []):
            resolved = self._resolve_class_expr(rel, base)
            if resolved is None:
                continue
            found = self._class_method(
                resolved[0], resolved[1], method, _depth=_depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_class_expr(
        self, rel: str, node: ast.expr
    ) -> tuple[str, str] | None:
        """Resolve a base-class expression to (module rel, class qual)."""
        if isinstance(node, ast.Name) and node.id in self.indexes[rel].classes:
            return (rel, node.id)
        dotted = self.modules[rel].resolve(node)
        target = None if dotted is None else self._target(dotted)
        if target is not None and target[0] == "cls":
            return (target[1], target[2])
        return None

    def _resolve_callable(
        self, rel: str, scope: str, func: ast.expr
    ) -> FuncKey | None:
        if isinstance(func, ast.Name):
            return self._resolve_name_ref(rel, scope, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            # self.m() / cls.m(): resolve through the enclosing class
            if base.id in ("self", "cls"):
                head = scope.split(".<locals>.")[0]  # "Class.method"
                if "." in head:
                    cls = head.rsplit(".", 1)[0]
                    found = self._class_method(rel, cls, attr)
                    if found is not None:
                        return found
                return self._fallback(attr)
            # Class.m() on a local class
            if base.id in self.indexes[rel].classes:
                found = self._class_method(rel, base.id, attr)
                if found is not None:
                    return found
        dotted = self.modules[rel].resolve(func)
        if dotted is not None:
            # rooted in an import: repo code, or external (np., math.)
            # and definitely not to be guessed at by the fallback
            return self._callable(self._target(dotted))
        # call on an arbitrary expression: unique-name fallback only
        return self._fallback(attr)

    def _fallback(self, name: str) -> FuncKey | None:
        """Unique-name resolution for otherwise-opaque attribute calls."""
        if name.startswith("__") or name in FALLBACK_BLOCKLIST:
            return None
        keys = self._by_name.get(name)
        if keys is not None and len(keys) == 1:
            return keys[0]
        return None

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def _is_kernel_module(self, rel: str) -> bool:
        module = self.modules.get(rel)
        return module is not None and module.is_kernel_path()

    def _compute_closure(self) -> None:
        seeds = [
            key for key in self.functions if self._is_kernel_module(key[0])
        ]
        for seed in seeds:
            self.closure[seed] = None
        frontier = list(seeds)
        while frontier:
            caller = frontier.pop()
            for site in self.edges.get(caller, []):
                if site.callee in self.closure:
                    continue
                if site.callee not in self.functions:
                    continue
                self.closure[site.callee] = Provenance(caller, site.line)
                frontier.append(site.callee)

    def entry_chain(
        self, key: FuncKey, *, max_hops: int = 6
    ) -> list[tuple[str, int, str]]:
        """Provenance hops ``(file, line, caller qualname)`` from the
        nearest caller back toward the kernel-path seed."""
        chain: list[tuple[str, int, str]] = []
        seen = {key}
        while len(chain) < max_hops:
            prov = self.closure.get(key)
            if prov is None:
                break
            caller, line = prov.caller, prov.line
            chain.append((caller[0], line, caller[1]))
            if caller in seen:  # defensive: provenance cannot cycle
                break
            seen.add(caller)
            key = caller
        return chain

    def closure_defs_in(
        self, rel: str
    ) -> list[tuple[str, ast.AST, list[tuple[str, int, str]]]]:
        """Top-most closure function nodes in a *non-kernel* module.

        Returns ``(qualname, def node, provenance chain)`` triples.
        Nested functions whose enclosing function is itself in the
        closure are skipped (the parent's subtree already covers them),
        so no statement is scanned twice.
        """
        members = [
            qual for (mod, qual) in self.closure
            if mod == rel and qual != MODULE_SCOPE
        ]
        chosen: list[str] = []
        for qual in sorted(members):
            ancestors = []
            parts = qual.split(".<locals>.")
            for i in range(1, len(parts)):
                ancestors.append(".<locals>.".join(parts[:i]))
            if any(a in members for a in ancestors):
                continue
            chosen.append(qual)
        index = self.indexes[rel]
        out = []
        for qual in chosen:
            node = index.defs.get(qual)
            if node is None:
                continue
            out.append((qual, node, self.entry_chain((rel, qual))))
        return out


def build_program(root: Path, modules: list["SourceModule"]) -> Program:
    """Index ``modules`` and compute call edges + the kernel closure.

    ``root`` is the lint root (its directory name is the package name
    stripped from absolute dotted imports). All inputs and outputs are
    host-side metadata — scalar line numbers and string keys, no
    arrays.
    """
    return Program(root, modules)
