"""Per-module numeric facts: dtypes, allocations, copies, kernel loops.

:func:`build_module_numerics` distills one parsed
:class:`~repro.qa.source.SourceModule` into a :class:`ModuleNumerics`
record — everything the flow-aware numeric rules
(:mod:`repro.qa.rules.numerics`) and the ``repro-qa numerics`` report
need, and nothing that requires keeping the AST around.  Like the
concurrency facts, the record serializes to JSON through
:mod:`repro.qa.codec`, so the incremental cache restores it for
unchanged files without re-parsing.

What is extracted, per function or method:

* **array operations** — every resolved NumPy allocation
  (``np.zeros`` / ``empty`` / ufuncs without ``out=``), copy-inducing
  construct (``concatenate`` family, ``.copy()`` / ``.astype()``,
  fancy indexing), in-place write (``out=``, augmented assigns on
  arrays, slice stores), and GEMM (``@`` / ``matmul`` / ``dot`` /
  ``einsum``), each tagged with the dtype inferred by the
  :mod:`repro.qa.dtypeflow` lattice, the enclosing per-element loop
  depth, and whether it feeds a GEMM/reduction operand directly;
* **scalar loops** — ``for i in range(len(x) | x.size | x.shape[k])``
  per-element iteration over an array dimension (a ``range`` *step*
  argument marks deliberate chunked iteration and is excluded);
* **calls** — resolved project calls from declared-dtype kernels, for
  one level of interprocedural dtype propagation at index time;
* **declared dtype policy** — a ``dtype: float64|float32|preserve``
  docstring tag, falling back to :data:`DEFAULT_DTYPE_POLICY` for the
  named kernel modules (dual-dtype kernels are "preserve" — they must
  follow whichever ``ClassifierConfig.compute_dtype`` the model was
  fitted at).

The four rules built on these facts fire only inside declared-policy
functions, so instrumentation, tests, and tooling modules stay quiet
by construction.
"""

from __future__ import annotations

import ast
import re

from dataclasses import dataclass, field

from .dataflow import head_walk
from .dtypeflow import (
    FLOAT64,
    UNKNOWN,
    WEAK_FLOAT,
    WEAK_INT,
    DtypeFlow,
    ExprDtyper,
    concrete,
)
from .source import SourceModule

#: Module-level dtype policy for the numeric kernel modules.  The
#: dual-dtype kernels ("preserve") must follow the fitted model's
#: ``ClassifierConfig.compute_dtype`` without silent upcasts; stage
#: segmentation stays "float64" (its float work — durations, mode
#: statistics — is diagnostics, never a model buffer).  A per-function
#: docstring ``dtype:`` tag overrides the module default (fit-time
#: master-statistics accumulators and result packaging declare
#: ``dtype: float64`` explicitly).
DEFAULT_DTYPE_POLICY: dict[str, str] = {
    "repro.core.preprocessing": "preserve",
    "repro.core.pca": "preserve",
    "repro.core.knn": "preserve",
    "repro.core.stages": "float64",
    "repro.core.pipeline": "preserve",
    "repro.serve.batch": "preserve",
    "repro.ingest.plane": "float64",
    "repro.ingest.timeline": "float64",
}

#: Valid values of a docstring ``dtype:`` tag.
DTYPE_POLICIES = ("float64", "float32", "preserve")

_DTYPE_TAG_RE = re.compile(r"^\s*dtype:\s*(float64|float32|preserve)\s*$", re.MULTILINE)

#: numpy callables that allocate a fresh array.
ALLOCATING_CALLS = frozenset(
    {
        "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
        "empty_like", "full_like", "arange", "linspace", "identity",
        "eye", "bincount",
    }
)

#: numpy callables that materialise a full copy of their input data.
COPYING_CALLS = frozenset(
    {
        "concatenate", "vstack", "hstack", "stack", "column_stack",
        "row_stack", "array", "copy", "ascontiguousarray",
        "asfortranarray", "tile", "repeat", "pad", "sort",
    }
)

#: numpy ufuncs/reductions that accept ``out=`` (allocate without it).
OUT_CAPABLE = frozenset(
    {
        "add", "subtract", "multiply", "divide", "true_divide",
        "maximum", "minimum", "sqrt", "exp", "log", "abs", "absolute",
        "negative", "square", "power", "clip", "matmul", "dot", "sum",
        "cumsum", "where",
    }
)

#: GEMM-shaped contractions (plus the ``@`` operator, handled apart).
GEMM_CALLS = frozenset({"matmul", "dot", "einsum", "tensordot", "inner", "outer"})

#: Reductions whose operands count as "feeding a reduction site".
REDUCTION_CALLS = frozenset({"sum", "mean", "prod", "std", "var", "amax", "amin", "max", "min"})

#: Array methods that copy their receiver's data.
COPYING_METHODS = frozenset({"copy", "astype", "flatten", "tolist"})


def parse_dtype_tag(doc: str | None) -> str | None:
    """The ``dtype: float64|float32|preserve`` tag of a docstring."""
    if not doc:
        return None
    m = _DTYPE_TAG_RE.search(doc)
    return m.group(1) if m else None


# ----------------------------------------------------------------------
# fact records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayOp:
    """One array-producing, copying, in-place, or GEMM operation."""

    kind: str  # "alloc" | "copy" | "inplace" | "gemm" | "promote"
    op: str  # rendered operation, e.g. "np.zeros", ".astype", "@"
    dtype: str | None  # inferred result dtype (lattice element)
    out: bool  # wrote into an existing buffer (out= / aug / slice store)
    loop_depth: int  # enclosing per-element array-dim loops
    feeds_gemm: bool  # operand of a GEMM/reduction in the same expression
    lineno: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class ScalarLoop:
    """One per-element Python loop over an array dimension."""

    var: str  # loop variable name ("i", or "_" forms)
    bound: str  # rendered bound, e.g. "range(classes.size)"
    lineno: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class NumCall:
    """One resolved project call from a declared-dtype kernel."""

    callee: str  # dotted spec resolved through imports
    lineno: int
    col: int
    line_text: str = ""


@dataclass
class FunctionNumerics:
    """Numeric facts of one function or method."""

    name: str
    qualname: str
    cls: str | None  # owning class name, None for module functions
    lineno: int
    #: Resolved dtype policy: docstring tag, else the module policy map,
    #: else None (rules stay silent without a declaration).
    declared: str | None = None
    array_ops: list[ArrayOp] = field(default_factory=list)
    scalar_loops: list[ScalarLoop] = field(default_factory=list)
    calls: list[NumCall] = field(default_factory=list)
    #: Dtype every ``return`` statement agrees on (lattice join).
    return_dtype: str | None = None

    def is_empty(self) -> bool:
        return (
            self.declared is None
            and not self.array_ops
            and not self.scalar_loops
            and not self.calls
            and self.return_dtype is None
        )


@dataclass
class ModuleNumerics:
    """All numeric facts of one module."""

    functions: list[FunctionNumerics] = field(default_factory=list)

    def is_trivial(self) -> bool:
        """True when nothing here can matter to any numeric rule."""
        return not self.functions


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def _render_bound(iter_call: ast.Call) -> str:
    try:
        return ast.unparse(iter_call)
    except Exception:  # pragma: no cover - unparse is total on our input
        return "range(...)"


class _FunctionExtractor:
    """Lexical walker producing one :class:`FunctionNumerics`."""

    def __init__(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ast.ClassDef | None,
    ) -> None:
        self.module = module
        self.fn = fn
        cls_name = cls.name if cls is not None else None
        qualname = f"{cls_name}.{fn.name}" if cls_name else fn.name
        declared = parse_dtype_tag(ast.get_docstring(fn))
        if declared is None:
            declared = DEFAULT_DTYPE_POLICY.get(module.name)
        self.facts = FunctionNumerics(
            name=fn.name,
            qualname=qualname,
            cls=cls_name,
            lineno=fn.lineno,
            declared=declared,
        )
        self.dtyper = ExprDtyper(module.resolve_callee)
        param_dtypes: dict[str, str | None] = {}
        if declared in ("float64", "float32"):
            args = fn.args
            every = (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
            for a in every:
                if a.arg not in ("self", "cls"):
                    param_dtypes[a.arg] = declared
        self._flow = DtypeFlow(self.dtyper, param_dtypes)
        self._flow.run(fn)
        self._env_at: dict[int, dict[str, str | None]] = {}
        for stmt, fact in self._flow.statement_facts():
            self._env_at[id(stmt)] = fact
        self._return_dtypes: list[str | None] = []
        self._seen: set[tuple[int, int, str]] = set()

    def _line(self, lineno: int) -> str:
        return self.module.line_at(lineno)

    def run(self) -> FunctionNumerics:
        self._walk(self.fn.body, 0)
        ret = None
        first = True
        for d in self._return_dtypes:
            ret = d if first else (d if d == ret else UNKNOWN)
            first = False
        self.facts.return_dtype = ret
        return self.facts

    # -- loop contexts --------------------------------------------------
    def _scalar_loop(
        self, stmt: ast.For, env: dict[str, str | None]
    ) -> ScalarLoop | None:
        """A ``for i in range(<array dim>)`` per-element loop, or None.

        A ``range`` *step* argument means deliberate chunked iteration
        and disqualifies the loop; so does a bound that is not provably
        an array dimension (plain ints, list lengths).
        """
        it = stmt.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)):
            return None
        if it.func.id != "range" or len(it.args) not in (1, 2):
            return None
        base: ast.expr | None = None
        bound = it.args[-1]
        if (
            isinstance(bound, ast.Call)
            and isinstance(bound.func, ast.Name)
            and bound.func.id == "len"
            and bound.args
        ):
            base = bound.args[0]
        elif isinstance(bound, ast.Attribute) and bound.attr == "size":
            base = bound.value
        elif (
            isinstance(bound, ast.Subscript)
            and isinstance(bound.value, ast.Attribute)
            and bound.value.attr == "shape"
        ):
            base = bound.value.value
        if base is None:
            return None
        if self.dtyper.infer(base, env) is UNKNOWN:
            return None  # not provably an array dimension
        var = stmt.target.id if isinstance(stmt.target, ast.Name) else "_"
        return ScalarLoop(
            var=var,
            bound=_render_bound(it),
            lineno=stmt.lineno,
            col=stmt.col_offset,
            line_text=self._line(stmt.lineno),
        )

    def _walk(self, body: list[ast.stmt], depth: int) -> None:
        for stmt in body:
            env = self._env_at.get(id(stmt), {})
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scope
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                inner = depth
                if isinstance(stmt, ast.For):
                    loop = self._scalar_loop(stmt, env)
                    if loop is not None:
                        self.facts.scalar_loops.append(loop)
                        inner = depth + 1
                self._scan_stmt(stmt, env, depth)
                self._walk(stmt.body, inner)
                self._walk(stmt.orelse, depth)
            else:
                self._scan_stmt(stmt, env, depth)
                for name in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, name, None)
                    if sub:
                        self._walk(sub, depth)
                for handler in getattr(stmt, "handlers", ()):
                    self._walk(handler.body, depth)
                for case in getattr(stmt, "cases", ()):
                    self._walk(case.body, depth)

    # -- statement scanning ---------------------------------------------
    def _record(
        self,
        node: ast.AST,
        kind: str,
        op: str,
        dtype: str | None,
        out: bool,
        depth: int,
        feeds_gemm: bool,
    ) -> None:
        lineno = getattr(node, "lineno", self.fn.lineno)
        col = getattr(node, "col_offset", 0)
        key = (lineno, col, kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self.facts.array_ops.append(
            ArrayOp(
                kind=kind,
                op=op,
                dtype=dtype,
                out=out,
                loop_depth=depth,
                feeds_gemm=feeds_gemm,
                lineno=lineno,
                col=col,
                line_text=self._line(lineno),
            )
        )

    @staticmethod
    def _has_kwarg(call: ast.Call, name: str) -> bool:
        return any(kw.arg == name for kw in call.keywords)

    def _gemm_operands(self, stmt: ast.stmt) -> set[int]:
        """ids of expressions that are direct GEMM/reduction operands."""
        operands: set[int] = set()
        for node in head_walk(stmt):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands.add(id(node.left))
                operands.add(id(node.right))
            elif isinstance(node, ast.Call):
                spec = self.module.resolve_callee(node.func)
                if spec and spec.startswith("numpy."):
                    name = spec.split(".")[-1]
                    if name in GEMM_CALLS or name in REDUCTION_CALLS:
                        operands.update(id(a) for a in node.args)
        return operands

    def _fancy_index(self, node: ast.Subscript, env: dict[str, str | None]) -> bool:
        """True for advanced (copying) indexing: array/list indices."""
        if self.dtyper.infer(node.value, env) is UNKNOWN:
            return False  # receiver not provably an array
        index = node.slice
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        for part in parts:
            if isinstance(part, ast.List):
                return True
            if isinstance(part, ast.Name):
                got = self.dtyper.infer(part, env)
                if got is not UNKNOWN and got not in (WEAK_INT, WEAK_FLOAT):
                    return True
        return False

    def _scan_stmt(self, stmt: ast.stmt, env: dict[str, str | None], depth: int) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._return_dtypes.append(self.dtyper.infer(stmt.value, env))
        # In-place writes the table credits: augmented assigns on arrays
        # (not on Python int/float scalars) and stores into array slices.
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            if env.get(stmt.target.id, UNKNOWN) not in (UNKNOWN, WEAK_INT, WEAK_FLOAT):
                op_sym = type(stmt.op).__name__
                self._record(
                    stmt, "inplace", f"{op_sym}=", env.get(stmt.target.id),
                    out=True, depth=depth, feeds_gemm=False,
                )
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Subscript) for t in stmt.targets
        ):
            target = next(t for t in stmt.targets if isinstance(t, ast.Subscript))
            base = self.dtyper.infer(target.value, env)
            if base is not UNKNOWN:
                self._record(
                    stmt, "inplace", "slice-store", base,
                    out=True, depth=depth, feeds_gemm=False,
                )
        gemm_ops = self._gemm_operands(stmt)
        for node in head_walk(stmt):
            if isinstance(node, ast.BinOp):
                if isinstance(node.op, ast.MatMult):
                    self._record(
                        node, "gemm", "@",
                        self.dtyper.infer(node, env),
                        out=False, depth=depth, feeds_gemm=False,
                    )
                elif self.facts.declared in ("float32", "preserve"):
                    got = self.dtyper.infer(node, env)
                    if concrete(got) == FLOAT64:
                        self._record(
                            node, "promote", type(node.op).__name__, FLOAT64,
                            out=False, depth=depth, feeds_gemm=id(node) in gemm_ops,
                        )
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                if self._fancy_index(node, env):
                    self._record(
                        node, "copy", "fancy-index",
                        self.dtyper.infer(node.value, env),
                        out=False, depth=depth, feeds_gemm=id(node) in gemm_ops,
                    )
            elif isinstance(node, ast.Call):
                self._scan_call(node, env, depth, gemm_ops)

    def _scan_call(
        self,
        call: ast.Call,
        env: dict[str, str | None],
        depth: int,
        gemm_ops: set[int],
    ) -> None:
        spec = self.module.resolve_callee(call.func)
        feeds = id(call) in gemm_ops
        if spec is not None and spec.startswith("numpy."):
            name = spec.split(".")[-1]
            dtype = self.dtyper.infer(call, env)
            rendered = f"np.{name}"
            has_out = self._has_kwarg(call, "out")
            if name in GEMM_CALLS:
                self._record(call, "gemm", rendered, dtype, has_out, depth, feeds)
            elif name in COPYING_CALLS:
                self._record(call, "copy", rendered, dtype, False, depth, feeds)
            elif name in ALLOCATING_CALLS:
                self._record(call, "alloc", rendered, dtype, False, depth, feeds)
            elif name in OUT_CAPABLE:
                kind = "inplace" if has_out else "alloc"
                self._record(call, kind, rendered, dtype, has_out, depth, feeds)
            elif self.facts.declared in ("float32", "preserve") and concrete(dtype) == FLOAT64:
                self._record(call, "promote", rendered, FLOAT64, False, depth, feeds)
            return
        if isinstance(call.func, ast.Attribute) and spec is None:
            method = call.func.attr
            if method in COPYING_METHODS and method != "tolist":
                base = self.dtyper.infer(call.func.value, env)
                if base is not UNKNOWN or method == "astype":
                    dtype = self.dtyper.infer(call, env)
                    self._record(
                        call, "copy", f".{method}", dtype, False, depth, feeds
                    )
            return
        if (
            spec is not None
            and spec.startswith("repro.")
            and self.facts.declared in ("float32", "preserve")
        ):
            self.facts.calls.append(
                NumCall(
                    callee=spec,
                    lineno=call.lineno,
                    col=call.col_offset,
                    line_text=self._line(call.lineno),
                )
            )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_module_numerics(module: SourceModule) -> ModuleNumerics | None:
    """Extract numeric facts for one module (None when trivial)."""
    functions: list[FunctionNumerics] = []
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts = _FunctionExtractor(module, node, None).run()
            if not facts.is_empty():
                functions.append(facts)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts = _FunctionExtractor(module, sub, node).run()
                    if not facts.is_empty():
                        functions.append(facts)
    out = ModuleNumerics(functions=functions)
    if out.is_trivial():
        return None
    return out


# ----------------------------------------------------------------------
# project-level index
# ----------------------------------------------------------------------


class NumericsIndex:
    """Project-wide view over every module's numeric facts.

    Built once per :class:`~repro.qa.callgraph.ProjectIndex` (memoized
    by :meth:`of`), shared by the four numeric rules and the
    ``repro-qa numerics`` report so the collection cost is paid once.
    """

    def __init__(self, index) -> None:
        self.index = index
        #: (module name, module relpath, function facts), sorted.
        self.functions: list[tuple[str, str, FunctionNumerics]] = []
        #: fully-qualified spec of a module function → inferred return
        #: dtype (the one-level interprocedural propagation table).
        self.return_dtypes: dict[str, str | None] = {}
        self._collect()

    @classmethod
    def of(cls, index) -> "NumericsIndex":
        cached = getattr(index, "_numerics_index", None)
        if cached is None:
            cached = cls(index)
            index._numerics_index = cached
        return cached

    def _collect(self) -> None:
        for name in sorted(self.index.modules):
            mod = self.index.modules[name]
            num = mod.numerics
            if num is None:
                continue
            for fn in num.functions:
                self.functions.append((name, mod.relpath, fn))
                if fn.cls is None and fn.return_dtype is not None:
                    self.return_dtypes[f"{name}.{fn.name}"] = fn.return_dtype

    def callee_return_dtype(self, spec: str) -> str | None:
        """Return dtype of a project function, through one re-export."""
        if spec in self.return_dtypes:
            return self.return_dtypes[spec]
        return None


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


def numerics_to_json(num: NumericsIndex) -> dict:
    """JSON-ready per-kernel allocation/dtype report (deterministic)."""
    kernels = []
    for module, relpath, fn in num.functions:
        kernels.append(
            {
                "module": module,
                "function": fn.qualname,
                "relpath": relpath,
                "lineno": fn.lineno,
                "declared": fn.declared,
                "return_dtype": fn.return_dtype,
                "ops": [
                    {
                        "kind": op.kind,
                        "op": op.op,
                        "dtype": op.dtype,
                        "out": op.out,
                        "loop_depth": op.loop_depth,
                        "feeds_gemm": op.feeds_gemm,
                        "lineno": op.lineno,
                    }
                    for op in sorted(fn.array_ops, key=lambda o: (o.lineno, o.col))
                ],
                "scalar_loops": [
                    {"var": s.var, "bound": s.bound, "lineno": s.lineno}
                    for s in sorted(fn.scalar_loops, key=lambda s: s.lineno)
                ],
            }
        )
    return {"kernels": kernels}


def render_numerics_table(num: NumericsIndex) -> str:
    """Fixed-width per-kernel allocation/dtype table (deterministic)."""
    rows: list[tuple[str, str, str, str, str, str, str, str]] = []
    for module, _relpath, fn in num.functions:
        counts = {"alloc": 0, "copy": 0, "inplace": 0, "gemm": 0, "promote": 0}
        for op in fn.array_ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        rows.append(
            (
                f"{module}.{fn.qualname}",
                fn.declared or "-",
                fn.return_dtype or "?",
                str(counts["alloc"]),
                str(counts["copy"]),
                str(counts["inplace"]),
                str(counts["gemm"]),
                str(len(fn.scalar_loops)),
            )
        )
    headers = ("kernel", "policy", "ret", "alloc", "copy", "inplace", "gemm", "loops")
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    if not rows:
        lines.append("(no numeric kernels found)")
    return "\n".join(lines) + "\n"


__all__ = [
    "ALLOCATING_CALLS",
    "ArrayOp",
    "COPYING_CALLS",
    "COPYING_METHODS",
    "DEFAULT_DTYPE_POLICY",
    "DTYPE_POLICIES",
    "FunctionNumerics",
    "GEMM_CALLS",
    "ModuleNumerics",
    "NumCall",
    "NumericsIndex",
    "OUT_CAPABLE",
    "REDUCTION_CALLS",
    "ScalarLoop",
    "build_module_numerics",
    "numerics_to_json",
    "parse_dtype_tag",
    "render_numerics_table",
]
