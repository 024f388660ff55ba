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

* ``import a.b as m`` / ``from a import b [as c]`` (including relative
  imports and one-level ``__init__`` re-export chasing) bind local
  names to modules, functions, or classes;
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
    """Per-module symbol tables feeding the program-wide resolution."""

    def __init__(self, module: "SourceModule") -> None:
        self.module = module
        self.rel = module.rel
        #: dotted qualname -> def node (functions and methods)
        self.defs: dict[str, ast.AST] = {}
        #: class qualname -> {method name -> method qualname}
        self.classes: dict[str, dict[str, str]] = {}
        #: class qualname -> base-class name expressions (textual)
        self.class_bases: dict[str, list[ast.expr]] = {}
        #: local name -> binding ("mod", rel) | ("def", qual) |
        #: ("import", dotted, original) | ("ext", dotted)
        self.bindings: dict[str, tuple] = {}
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
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    local = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else (
                        alias.name.split(".")[0]
                    )
                    self.bindings[local] = ("import", dotted, alias.name)
            elif isinstance(child, ast.ImportFrom):
                base = self._from_base(child)
                for alias in child.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = (
                        "from", base, alias.name
                    )
                self._collect(child, prefix=prefix)
            else:
                self._collect(child, prefix=prefix)

    def _from_base(self, node: ast.ImportFrom) -> str:
        """Dotted base module of a ``from X import ...`` (absolute form)."""
        if node.level == 0:
            return node.module or ""
        # relative import: resolve against this module's package
        parts = self.rel.split("/")
        if parts[-1] == "__init__.py":
            pkg = parts[:-1]
        else:
            pkg = parts[:-1]
        # level 1 = current package, each extra level pops one
        pkg = pkg[: len(pkg) - (node.level - 1)] if node.level > 1 else pkg
        dotted = ".".join(pkg)
        if node.module:
            dotted = f"{dotted}.{node.module}" if dotted else node.module
        return dotted


class Program:
    """The resolved whole-program call graph plus its kernel closure.

    Build with :func:`build_program`; the two queries the framework
    uses are :meth:`closure_defs_in` (top-most closure function nodes
    in one non-kernel module) and :meth:`entry_chain` (provenance hops
    back to the kernel-path seed, for finding attribution).
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
    # module / name resolution
    # ------------------------------------------------------------------
    def resolve_module(self, dotted: str) -> str | None:
        """Map a dotted module name to a root-relative path (or None)."""
        if not dotted:
            return None
        parts = dotted.split(".")
        if parts[0] == self.root_pkg:
            parts = parts[1:]
        if not parts:
            return None
        for candidate in (
            "/".join(parts) + ".py",
            "/".join(parts) + "/__init__.py",
        ):
            if candidate in self.modules:
                return candidate
        return None

    def _resolve_from(
        self, base: str, name: str, *, _seen: frozenset = frozenset()
    ) -> tuple | None:
        """Resolve ``from <base> import <name>`` to ("mod", rel) or
        ("def", rel, qual), chasing one-level ``__init__`` re-exports."""
        submodule = self.resolve_module(f"{base}.{name}")
        if submodule is not None:
            return ("mod", submodule)
        rel = self.resolve_module(base)
        if rel is None:
            return None
        index = self.indexes[rel]
        if name in index.defs:
            return ("def", rel, name)
        if name in index.classes:
            return ("cls", rel, name)
        # re-export chase through the target module's own imports
        if name in index.bindings and (rel, name) not in _seen:
            return self._resolve_binding(
                rel, name, _seen=_seen | {(rel, name)}
            )
        return None

    def _resolve_binding(
        self, rel: str, name: str, *, _seen: frozenset = frozenset()
    ) -> tuple | None:
        """Resolve a local name binding in module ``rel``."""
        index = self.indexes[rel]
        binding = index.bindings.get(name)
        if binding is None:
            return None
        kind = binding[0]
        if kind == "import":
            _, dotted, full = binding
            target = self.resolve_module(dotted)
            if target is not None:
                return ("mod", target)
            # `import a.b.c` binds `a`; keep the full dotted path so
            # attribute chains can walk into it
            return ("pkg", dotted, full)
        if kind == "from":
            _, base, original = binding
            return self._resolve_from(base, original, _seen=_seen)
        return None

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
        index = self.indexes[rel]
        local = self._local_def(rel, scope, name)
        if local is not None:
            return (rel, local)
        if name in index.classes:
            init = index.classes[name].get("__init__")
            return (rel, init) if init else None
        binding = self._resolve_binding(rel, name)
        if binding is None:
            return None
        if binding[0] == "def":
            return (binding[1], binding[2])
        if binding[0] == "cls":
            target = self.indexes[binding[1]].classes[binding[2]]
            init = target.get("__init__")
            return (binding[1], init) if init else None
        return None

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
        if isinstance(node, ast.Name):
            if node.id in self.indexes[rel].classes:
                return (rel, node.id)
            binding = self._resolve_binding(rel, node.id)
            if binding is not None and binding[0] == "cls":
                return (binding[1], binding[2])
            return None
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            binding = self._resolve_binding(rel, node.value.id)
            if binding is not None and binding[0] == "mod":
                target = self.indexes[binding[1]]
                if node.attr in target.classes:
                    return (binding[1], node.attr)
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
            name = base.id
            index = self.indexes[rel]
            # self.m() / cls.m(): resolve through the enclosing class
            if name in ("self", "cls"):
                head = scope.split(".<locals>.")[0]  # "Class.method"
                if "." in head:
                    cls = head.rsplit(".", 1)[0]
                    found = self._class_method(rel, cls, attr)
                    if found is not None:
                        return found
                return self._fallback(attr)
            # Class.m() on a local or imported class
            if name in index.classes:
                found = self._class_method(rel, name, attr)
                if found is not None:
                    return found
            binding = self._resolve_binding(rel, name)
            if binding is not None:
                if binding[0] == "mod":
                    return self._module_attr(binding[1], attr)
                if binding[0] == "cls":
                    return self._class_method(binding[1], binding[2], attr)
                if binding[0] == "pkg":
                    return None  # handled by the dotted-chain case below
                if binding[0] == "def":
                    return None  # function attribute (rare); no edge
            if name in index.bindings:
                # bound to an external import (np., math., ...):
                # definitely not repo code — do NOT fall back
                return None
            return self._fallback(attr)
        if isinstance(base, ast.Attribute):
            dotted = self._dotted_name(func)
            if dotted is not None:
                resolved = self._resolve_dotted_call(rel, dotted)
                if resolved is not None:
                    return resolved
                head = dotted.split(".", 1)[0]
                if head in self.indexes[rel].bindings:
                    return None  # rooted in an import; chain unresolved
            return self._fallback(attr)
        # call on an arbitrary expression: unique-name fallback only
        return self._fallback(attr)

    def _dotted_name(self, node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def _resolve_dotted_call(self, rel: str, dotted: str) -> FuncKey | None:
        """Resolve ``a.b.c.f()`` where ``a`` is an imported package."""
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        binding = self.indexes[rel].bindings.get(head)
        if binding is None or binding[0] != "import":
            return None
        _, _, full = binding
        # `import a.b.c` binds `a`; the chain must spell a module path
        # ending in the function name
        for split in range(len(rest), 0, -1):
            module_dotted = ".".join([head] + rest[: split - 1])
            target = self.resolve_module(module_dotted)
            if target is None:
                continue
            remaining = rest[split - 1:]
            if len(remaining) == 1:
                return self._module_attr(target, remaining[0])
            if len(remaining) == 2:
                found = self._class_method(target, remaining[0], remaining[1])
                if found is not None:
                    return found
        return None

    def _module_attr(self, rel: str, attr: str) -> FuncKey | None:
        index = self.indexes.get(rel)
        if index is None:
            return None
        if attr in index.defs:
            return (rel, attr)
        if attr in index.classes:
            init = index.classes[attr].get("__init__")
            if init is not None:
                return (rel, init)
            return None
        binding = self._resolve_binding(rel, attr)
        if binding is not None and binding[0] == "def":
            return (binding[1], binding[2])
        return None

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

    def in_closure(self, rel: str, qualname: str) -> bool:
        """Is function ``qualname`` of module ``rel`` kernel-reachable?"""
        return (rel, qualname) in self.closure

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
