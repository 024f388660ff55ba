"""DDA006 — Array-API portability of every ``np.*`` call on the device
path.

The kernel closure is meant to run under a strict Array-API namespace
(NumPy or CuPy behind one ``xp``). That only works if the
device-reachable code sticks to NumPy surface such a namespace can
actually provide. This rule checks every ``np.``/``numpy.`` call in
kernel-path modules *and* in the call-graph kernel closure against two
vendored tables:

* :data:`ARRAY_API` — functions in the Python Array API standard
  (2023.12 revision), keyed by their NumPy spelling with the standard
  name recorded where it differs (``concatenate`` → ``concat``). These
  are portable to any conforming backend.
* :data:`CUPY_EQUIV` — NumPy functions outside the standard that CuPy
  implements under the same name and semantics (``np.bincount``,
  ``np.lexsort``, ``np.einsum``...). Portable to the NumPy/CuPy pair
  this repo targets, flagged for any stricter backend by the tables
  themselves.

Everything else is a finding carrying a suggested portable rewrite:
:data:`NONPORTABLE` holds the curated suggestions (``np.add.at`` →
``repro.primitives.scatter.scatter_add``, ``np.vectorize`` → "that is a
disguised Python loop"), and unknown names get a generic message. Ufunc
*methods* (``np.add.at``, ``np.maximum.reduceat``...) are checked
separately because CuPy's coverage of them is partial and
order-dependent scatter semantics differ on real devices.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, LintPass, SourceModule

#: NumPy-spelled name -> Array-API-standard name (same when identical).
#: Vendored subset of the 2023.12 standard: only entries this repo may
#: plausibly use — extending it is a reviewed allowlist change.
ARRAY_API: dict[str, str] = {
    # creation
    "arange": "arange", "asarray": "asarray", "empty": "empty",
    "empty_like": "empty_like", "eye": "eye", "full": "full",
    "full_like": "full_like", "linspace": "linspace",
    "meshgrid": "meshgrid", "ones": "ones", "ones_like": "ones_like",
    "tril": "tril", "triu": "triu", "zeros": "zeros",
    "zeros_like": "zeros_like",
    # manipulation
    "broadcast_arrays": "broadcast_arrays", "broadcast_to": "broadcast_to",
    "concatenate": "concat", "expand_dims": "expand_dims",
    "flip": "flip", "moveaxis": "moveaxis", "permute_dims": "permute_dims",
    "repeat": "repeat", "reshape": "reshape", "roll": "roll",
    "squeeze": "squeeze", "stack": "stack", "tile": "tile",
    "unstack": "unstack",
    # element-wise
    "abs": "abs", "arccos": "acos", "arccosh": "acosh", "arcsin": "asin",
    "arcsinh": "asinh", "arctan": "atan", "arctan2": "atan2",
    "arctanh": "atanh", "add": "add", "bitwise_and": "bitwise_and",
    "bitwise_or": "bitwise_or", "bitwise_xor": "bitwise_xor",
    "ceil": "ceil", "clip": "clip", "copysign": "copysign", "cos": "cos",
    "cosh": "cosh", "divide": "divide", "equal": "equal", "exp": "exp",
    "expm1": "expm1", "floor": "floor", "floor_divide": "floor_divide",
    "greater": "greater", "greater_equal": "greater_equal",
    "hypot": "hypot", "isfinite": "isfinite", "isinf": "isinf",
    "isnan": "isnan", "less": "less", "less_equal": "less_equal",
    "log": "log", "log1p": "log1p", "log2": "log2", "log10": "log10",
    "logaddexp": "logaddexp", "logical_and": "logical_and",
    "logical_not": "logical_not", "logical_or": "logical_or",
    "logical_xor": "logical_xor", "maximum": "maximum",
    "minimum": "minimum", "multiply": "multiply", "negative": "negative",
    "not_equal": "not_equal", "positive": "positive", "power": "pow",
    "remainder": "remainder", "round": "round", "sign": "sign",
    "signbit": "signbit", "sin": "sin", "sinh": "sinh", "sqrt": "sqrt",
    "square": "square", "subtract": "subtract", "tan": "tan",
    "tanh": "tanh", "trunc": "trunc",
    # statistical / reductions
    "cumulative_sum": "cumulative_sum", "max": "max", "mean": "mean",
    "min": "min", "prod": "prod", "std": "std", "sum": "sum",
    "var": "var",
    # searching / sorting / set
    "argmax": "argmax", "argmin": "argmin", "argsort": "argsort",
    "count_nonzero": "count_nonzero", "nonzero": "nonzero",
    "searchsorted": "searchsorted", "sort": "sort", "where": "where",
    "unique_values": "unique_values",
    # linear algebra
    "matmul": "matmul", "tensordot": "tensordot", "vecdot": "vecdot",
    # logic
    "all": "all", "any": "any",
    # dtype helpers
    "astype": "astype", "can_cast": "can_cast", "finfo": "finfo",
    "iinfo": "iinfo", "isdtype": "isdtype", "result_type": "result_type",
    # misc
    "diff": "diff", "take": "take", "take_along_axis": "take_along_axis",
}

#: NumPy names outside the standard that CuPy provides with matching
#: semantics — portable to this repo's target backend pair.
CUPY_EQUIV: frozenset[str] = frozenset({
    # creation / conversion
    "array", "ascontiguousarray", "atleast_1d", "atleast_2d",
    "copy", "diag", "fromfunction",
    # dtype objects & predicates (module attributes used as callables)
    "dtype", "bool_", "float64", "int64", "intp", "issubdtype",
    "promote_types",
    # comparisons / predicates
    "allclose", "array_equal", "isclose", "isin",
    # index / set / sort
    "argpartition", "argwhere", "bincount", "digitize", "flatnonzero",
    "lexsort", "partition", "ravel_multi_index", "setdiff1d",
    "intersect1d", "union1d", "unique", "unravel_index",
    # restructuring
    "array_split", "column_stack", "hstack", "ravel", "split",
    "swapaxes", "transpose", "vstack", "pad",
    # math with no standard spelling
    "cross", "cumsum", "cumprod", "dot", "einsum", "fmax", "fmin",
    "gradient", "interp", "nan_to_num", "outer", "trace",
    "nanmax", "nanmin", "nansum", "median", "percentile", "ptp",
    # misc
    "may_share_memory", "shares_memory", "ndim", "size", "seterr",
    "errstate", "printoptions", "set_printoptions", "get_printoptions",
})

#: Dotted prefixes (after ``np.``) whole submodules of which are
#: CuPy-covered; calls through them are allowed.
CUPY_EQUIV_MODULES: frozenset[str] = frozenset({
    "linalg", "fft", "testing", "random",
})

#: Known-nonportable NumPy calls -> the suggested portable rewrite.
NONPORTABLE: dict[str, str] = {
    "vectorize": "np.vectorize is a disguised Python loop; write the "
                 "expression with vectorised ufuncs instead",
    "frompyfunc": "np.frompyfunc runs Python per element; use "
                  "vectorised ufuncs",
    "apply_along_axis": "np.apply_along_axis loops in Python; "
                        "restructure as a batched vectorised expression",
    "apply_over_axes": "np.apply_over_axes loops in Python; "
                       "restructure as a batched vectorised expression",
    "fromiter": "np.fromiter consumes a Python iterator element-wise; "
                "build the array with vectorised creation functions",
    "nditer": "np.nditer iterates on the host; use vectorised indexing",
    "piecewise": "np.piecewise calls Python functions per piece; use "
                 "np.where / boolean-mask arithmetic",
    "insert": "np.insert rebuilds the array on the host; use "
              "concatenation with precomputed split points",
    "delete": "np.delete rebuilds the array on the host; use a boolean "
              "mask instead",
    "poly1d": "np.poly1d is a host-side convenience object; evaluate "
              "polynomials with explicit Horner arithmetic",
    "loadtxt": "host I/O does not belong on the device path",
    "savetxt": "host I/O does not belong on the device path",
    "save": "host I/O does not belong on the device path",
    "load": "host I/O does not belong on the device path",
    "matrix": "np.matrix is legacy; use 2-D ndarrays",
    "asmatrix": "np.matrix is legacy; use 2-D ndarrays",
}

#: Ufunc-method suffixes with order-dependent or partially-supported
#: device semantics -> suggested seam.
UFUNC_METHODS: dict[str, str] = {
    "at": "use repro.primitives.scatter.scatter_add (the blessed "
          "scatter seam; maps to cupyx.scatter_add on a real device)",
    "reduceat": "use repro.primitives.scatter.segment_sum (the blessed "
                "segmented-reduction seam)",
    "outer": "materialise the outer product via broadcasting "
             "(a[:, None] op b[None, :])",
    "accumulate": "use np.cumsum / np.cumulative_sum",
    "reduce": "use the corresponding reduction function (np.sum, "
              "np.maximum.reduce -> np.max, ...)",
}

#: ndarray methods that are host-only or CuPy-absent.
BAD_METHODS: dict[str, str] = {
    "tofile": "host I/O; serialise through repro.io instead",
    "tobytes": "host serialisation; keep device arrays on the device",
    "dump": "pickle I/O does not belong on the device path",
    "dumps": "pickle I/O does not belong on the device path",
    "getfield": "raw-memory views are not portable across backends",
    "setfield": "raw-memory views are not portable across backends",
    "itemset": "removed in numpy 2 and absent from CuPy; use indexing",
    "byteswap": "byte-order games are not portable across backends",
    "newbyteorder": "byte-order games are not portable across backends",
}


def _numpy_aliases(tree: ast.AST) -> set[str]:
    """Local names bound to the numpy module (``import numpy as np``)."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    aliases.add(a.asname or "numpy")
    return aliases


def _imported_names(tree: ast.AST) -> set[str]:
    """Every top-level name an import statement binds in this module."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.add(a.asname or a.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                out.add(a.asname or a.name)
    return out


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]`` (None for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class ArrayApiPass(LintPass):
    code = "DDA006"
    name = "array-api-portability"
    description = (
        "every np.* call on the device path is in the Array-API "
        "standard table or the curated CuPy-equivalence allowlist"
    )
    closure_aware = True

    def scan(
        self, module: SourceModule, root: ast.AST
    ) -> Iterator[Finding]:
        aliases = _numpy_aliases(module.tree)
        imports = _imported_names(module.tree)
        scope: list[str] = []
        yield from self._visit(module, root, aliases, imports, scope)

    def _visit(
        self, module: SourceModule, node: ast.AST,
        aliases: set[str], imports: set[str], scope: list[str],
    ) -> Iterator[Finding]:
        pushed = False
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.append(node.name)
            pushed = True
        if isinstance(node, ast.Call):
            yield from self._check_call(
                module, node, aliases, imports, scope
            )
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child, aliases, imports, scope)
        if pushed:
            scope.pop()

    def _check_call(
        self, module: SourceModule, node: ast.Call,
        aliases: set[str], imports: set[str], scope: list[str],
    ) -> Iterator[Finding]:
        func = scope[-1] if scope else None
        parts = _dotted(node.func)
        if parts is not None and parts[0] in aliases and len(parts) >= 2:
            yield from self._check_numpy_call(
                module, node, parts[1:], func
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in BAD_METHODS
            # skip module functions that share a name (json.dump, ...)
            and not (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in imports
            )
        ):
            yield self.finding(
                module, node,
                f"array method '.{node.func.attr}()' is not portable: "
                f"{BAD_METHODS[node.func.attr]}",
                function=func,
            )
        # dtype=object anywhere in a call's keywords
        for kw in node.keywords:
            if kw.arg == "dtype" and self._is_object_dtype(
                kw.value, aliases
            ):
                yield self.finding(
                    module, node,
                    "dtype=object arrays cannot exist on a device; use a "
                    "numeric dtype or restructure as parallel arrays",
                    function=func,
                )

    @staticmethod
    def _is_object_dtype(value: ast.AST, aliases: set[str]) -> bool:
        if isinstance(value, ast.Name) and value.id == "object":
            return True
        parts = _dotted(value)
        return (
            parts is not None
            and len(parts) == 2
            and parts[0] in aliases
            and parts[1] in ("object_", "object")
        )

    def _check_numpy_call(
        self, module: SourceModule, node: ast.Call,
        chain: list[str], func: str | None,
    ) -> Iterator[Finding]:
        name = chain[0]
        # np.<ufunc>.at(...), np.<ufunc>.reduceat(...), ...
        if len(chain) == 2 and chain[1] in UFUNC_METHODS:
            yield self.finding(
                module, node,
                f"ufunc method 'np.{name}.{chain[1]}' has "
                "order-dependent/partial device support; "
                f"{UFUNC_METHODS[chain[1]]}",
                function=func,
            )
            return
        if len(chain) >= 2 and chain[0] in CUPY_EQUIV_MODULES:
            return  # np.linalg.*, np.fft.*, np.random.default_rng, ...
        if len(chain) >= 2:
            yield self.finding(
                module, node,
                f"'np.{'.'.join(chain)}' is outside the vendored "
                "Array-API/CuPy tables; use a tabled function or extend "
                "the allowlist with a review",
                function=func,
            )
            return
        if name in ARRAY_API:
            return
        if name in CUPY_EQUIV:
            return
        if name in NONPORTABLE:
            yield self.finding(
                module, node,
                f"'np.{name}' has no device equivalent: "
                f"{NONPORTABLE[name]}",
                function=func,
            )
        else:
            yield self.finding(
                module, node,
                f"'np.{name}' is not in the vendored Array-API standard "
                "table or the CuPy-equivalence allowlist; pick a tabled "
                "function or extend the allowlist with a review",
                function=func,
            )
