"""Per-module symbol facts: definitions, imports, contracts, call sites.

:func:`build_module_symbols` distills one parsed :class:`SourceModule`
into a :class:`ModuleSymbols` record — everything the project-wide
rules (call graph, shape contracts, dead code) need, and nothing that
requires keeping the AST around.  The records are plain dataclasses
that :mod:`repro.qa.codec` serializes to JSON, so the incremental cache
(:mod:`repro.qa.cache`) can restore them for unchanged files without
re-parsing.

Shape-contract grammar
----------------------
A *marker* is either the paper's ``a×b`` notation or a ``(a, b)`` /
``shape (a, b)`` tuple with two identifier axes (markers whose two axes
are identical, like ``8×8``, are ignored).  Markers bind to parameters
and return values sentence by sentence:

* In a NumPy-style ``Parameters`` section, a marker in a parameter's
  block binds to that parameter; markers in the ``Returns`` section
  bind to the return value.
* In prose, a sentence that mentions exactly one parameter name binds
  its first marker to that parameter; a second marker after a return
  indicator (``onto``, ``into``, ``returning``, ``returns``, ``->``,
  ``→``) binds to the return value.
* A first sentence with markers but no parameter mention binds its
  first marker to the function's only non-``self`` parameter (if there
  is exactly one); a second marker after a return indicator binds to
  the return value.
* A sentence containing a return indicator but no parameter mention
  binds its first marker to the return value.

Axis names compare case-insensitively; the shape-contract rule flags a
call site only when an argument's documented orientation is the exact
*transpose* of the parameter's.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from .concurrency import ModuleConcurrency, build_module_concurrency
from .dataflow import FunctionDataflow, NAC, head_walk
from .numerics import ModuleNumerics, build_module_numerics
from .source import ModuleScope, SourceModule

#: Caller label for call sites outside any top-level function.
MODULE_CONTEXT = "<module>"

#: Shape markers: ``a×b`` (unicode multiply) or ``(a, b)`` with short
#: identifier axes, optionally preceded by the word "shape".
_MARKER_RE = re.compile(
    r"(?P<ux>[A-Za-z0-9_]+)\s*×\s*(?P<uy>[A-Za-z0-9_]+)"
    r"|\(\s*(?P<tx>[A-Za-z0-9_]+)\s*,\s*(?P<ty>[A-Za-z0-9_]+)\s*\)"
)

#: Multi-character axis names accepted in markers.  Anything else must
#: be a 1–2 character symbol (``n``, ``m``, ``p``, ``q``, ``1``, …) so
#: ordinary prose parentheses never parse as orientations.
_AXIS_WORDS = frozenset(
    {"samples", "features", "rows", "cols", "columns", "metrics", "snapshots", "classes"}
)


def _valid_axis(axis: str) -> bool:
    return bool(re.fullmatch(r"[a-z0-9]{1,2}", axis)) or axis in _AXIS_WORDS

#: Words that shift marker binding from parameters to the return value.
_RETURN_INDICATORS = ("returns", "returning", "return", "onto", "into", "yields", "->", "→")

#: Builtin calls that do not spoil the purity heuristic.
_PURE_CALLS = {
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "float",
    "frozenset", "getattr", "hasattr", "int", "isinstance", "len", "list",
    "max", "min", "range", "repr", "reversed", "round", "set", "sorted",
    "str", "sum", "tuple", "zip",
}

#: Function-name prefixes exempt from unused-result (validate-by-raise).
VALIDATION_PREFIXES = ("validate", "check", "ensure", "assert")


@dataclass(frozen=True)
class ArgFact:
    """What static analysis knows about one call argument.

    ``kind`` is one of:

    * ``str`` — a literal string (``value``);
    * ``strs`` — a name whose every reaching definition is a known
      string constant (``strings``);
    * ``shape`` — a name carrying a documented orientation, either the
      caller's own contracted parameter or the result of a call with a
      return contract resolved at fact-extraction time (``shape``);
    * ``ret-of`` — the (possibly unresolved) return value of a call to
      ``ret_of``, orientation looked up at index time;
    * ``seq`` — a list/tuple literal of nested facts (``elements``);
    * ``other`` — anything else.
    """

    position: int | None
    keyword: str | None
    kind: str
    value: str | None = None
    strings: tuple[str, ...] | None = None
    shape: tuple[str, str] | None = None
    ret_of: str | None = None
    elements: tuple[ArgFact, ...] | None = None


@dataclass(frozen=True)
class CallSite:
    """One call expression, with resolved callee and argument facts."""

    lineno: int
    col: int
    line_text: str
    caller: str  # enclosing top-level function name, Class.method, or <module>
    callee: str | None  # dotted spec resolved through this module's imports
    callee_name: str  # bare trailing name (conservative matching)
    result_used: bool
    args: tuple[ArgFact, ...] = ()


@dataclass(frozen=True)
class FunctionSymbol:
    """One function (or method) definition and its contracts."""

    name: str
    qualname: str
    lineno: int
    col: int
    line_text: str
    is_public: bool
    decorated: bool
    returns_value: bool
    is_pure: bool
    param_names: tuple[str, ...]
    param_shapes: tuple[tuple[str, tuple[str, str]], ...] = ()
    return_shape: tuple[str, str] | None = None
    #: Methods carry contracts (used for caller-side shape provenance)
    #: but are exempt from call-graph liveness: attribute calls on
    #: instances cannot be resolved statically.
    is_method: bool = False

    def shape_of_param(self, name: str) -> tuple[str, str] | None:
        for pname, shape in self.param_shapes:
            if pname == name:
                return shape
        return None

    def shape_of_position(self, index: int) -> tuple[str, str] | None:
        if 0 <= index < len(self.param_names):
            return self.shape_of_param(self.param_names[index])
        return None


@dataclass
class ModuleSymbols(ModuleScope):
    """Everything project-wide analyses need to know about one module."""

    name: str
    relpath: str
    is_package: bool = False
    functions: list[FunctionSymbol] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    all_names: list[str] = field(default_factory=list)
    imports: dict[str, str] = field(default_factory=dict)
    #: (context, bare name) pairs for every Name load outside call-func
    #: position tracking — used for conservative liveness edges.
    name_refs: list[tuple[str, str]] = field(default_factory=list)
    #: Attribute names referenced anywhere (context-free, conservative).
    attr_refs: list[str] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    #: Metric-name string constants (populated for the catalog module).
    metric_names: tuple[str, ...] = ()
    #: Concurrency facts (locks, guarded accesses, thread lifecycles);
    #: ``None`` for modules with nothing concurrency-relevant.
    concurrency: ModuleConcurrency | None = None
    #: Numeric kernel facts (dtypes, allocations, copies, loops);
    #: ``None`` for modules with no NumPy-relevant code.
    numerics: ModuleNumerics | None = None


# ----------------------------------------------------------------------
# docstring shape contracts
# ----------------------------------------------------------------------


def _markers(text: str) -> list[tuple[int, tuple[str, str]]]:
    """(offset, (axis_a, axis_b)) for every usable marker in *text*."""
    out: list[tuple[int, tuple[str, str]]] = []
    for m in _MARKER_RE.finditer(text):
        a = (m.group("ux") or m.group("tx") or "").lower()
        b = (m.group("uy") or m.group("ty") or "").lower()
        if not a or not b or a == b:
            continue
        if not (_valid_axis(a) and _valid_axis(b)):  # prose, not axes
            continue
        out.append((m.start(), (a, b)))
    return out


def _mentions(sentence: str, param: str) -> bool:
    return re.search(rf"(?<![A-Za-z0-9_]){re.escape(param)}(?![A-Za-z0-9_])", sentence) is not None


def _return_indicator_offset(sentence: str) -> int | None:
    low = sentence.lower()
    best: int | None = None
    for word in _RETURN_INDICATORS:
        idx = low.find(word)
        if idx >= 0 and (best is None or idx < best):
            best = idx
    return best


def parse_shape_contracts(
    doc: str | None, param_names: list[str]
) -> tuple[dict[str, tuple[str, str]], tuple[str, str] | None]:
    """Extract (param → orientation, return orientation) from a docstring."""
    if not doc:
        return {}, None
    params: dict[str, tuple[str, str]] = {}
    ret: tuple[str, str] | None = None
    candidates = [p for p in param_names if p not in ("self", "cls")]

    # NumPy-style sections first: they are unambiguous.
    section = None
    block_param = None
    prose_lines: list[str] = []
    for line in doc.splitlines():
        stripped = line.strip()
        header = stripped.lower().rstrip(":")
        if header in ("parameters", "returns", "yields") :
            section = header
            block_param = None
            continue
        if set(stripped) <= {"-", "="} and stripped:
            continue
        if section == "parameters":
            m = re.match(r"(\w+)\s*:", stripped)
            if m and m.group(1) in candidates:
                block_param = m.group(1)
            if block_param is not None:
                for _, shape in _markers(stripped):
                    params.setdefault(block_param, shape)
        elif section in ("returns", "yields"):
            for _, shape in _markers(stripped):
                if ret is None:
                    ret = shape
        else:
            prose_lines.append(line)

    prose = "\n".join(prose_lines)
    sentences = re.split(r"(?<=\.)\s+|\n\n", prose)
    for index, sentence in enumerate(sentences):
        marks = _markers(sentence)
        if not marks:
            continue
        mentioned = [p for p in candidates if _mentions(sentence, p)]
        ret_at = _return_indicator_offset(sentence)
        param_marks = [s for off, s in marks if ret_at is None or off < ret_at]
        ret_marks = [s for off, s in marks if ret_at is not None and off > ret_at]
        if len(mentioned) == 1 and param_marks:
            params.setdefault(mentioned[0], param_marks[0])
        elif not mentioned and index == 0 and len(candidates) == 1 and param_marks:
            params.setdefault(candidates[0], param_marks[0])
        if ret is None and ret_marks:
            ret = ret_marks[0]
    return params, ret


# ----------------------------------------------------------------------
# function metadata
# ----------------------------------------------------------------------


def _scope_walk(node: ast.AST):
    """Walk *node* without entering nested function/class scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _returns_value(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in _scope_walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if not (isinstance(node.value, ast.Constant) and node.value.value is None):
                return True
    return False


def _is_pure(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Conservative purity: only local work and whitelisted builtins."""
    for node in _scope_walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Import, ast.ImportFrom)):
            return False
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return False
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in _PURE_CALLS:
                    return False
            else:
                return False  # method / attribute calls may mutate
    return True


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]


def _function_symbol(
    module: SourceModule,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    owner: str | None = None,
) -> FunctionSymbol:
    names = _param_names(fn)
    param_shapes, return_shape = parse_shape_contracts(ast.get_docstring(fn), names)
    local = f"{owner}.{fn.name}" if owner else fn.name
    return FunctionSymbol(
        name=fn.name,
        qualname=f"{module.name}.{local}",
        lineno=fn.lineno,
        col=fn.col_offset,
        line_text=module.line_at(fn.lineno),
        is_public=not fn.name.startswith("_"),
        decorated=bool(fn.decorator_list),
        returns_value=_returns_value(fn),
        is_pure=_is_pure(fn),
        param_names=tuple(names),
        param_shapes=tuple(sorted(param_shapes.items())),
        return_shape=return_shape,
        is_method=owner is not None,
    )


# ----------------------------------------------------------------------
# metric catalog extraction
# ----------------------------------------------------------------------

_CATALOG_TUPLES = {"GANGLIA_DEFAULT_METRICS", "VMSTAT_EXTENSION_METRICS", "EXPERT_METRIC_NAMES"}


def _extract_metric_names(module: SourceModule) -> tuple[str, ...]:
    """Statically read metric names out of the catalog module's AST.

    The qa package is stdlib-only by the layering DAG, so the catalog
    is consulted as *source*, never imported: names are the first
    argument of each spec constructor call inside the ``*_METRICS``
    tuples, plus the literal strings of ``EXPERT_METRIC_NAMES``.
    """
    names: list[str] = []
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
            value = node.value
        else:
            continue
        if value is None:
            continue
        if not any(t in _CATALOG_TUPLES or t.endswith("_METRICS") for t in targets):
            continue
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call) and sub.args:
                first = sub.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.append(first.value)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if not isinstance(node.value, (ast.Tuple, ast.List)):
                    continue
                if sub in node.value.elts:
                    names.append(sub.value)
    seen: set[str] = set()
    unique = [n for n in names if not (n in seen or seen.add(n))]
    return tuple(unique)


# ----------------------------------------------------------------------
# call-site extraction
# ----------------------------------------------------------------------


def _arg_fact(
    expr: ast.expr,
    position: int | None,
    keyword: str | None,
    stmt: ast.stmt | None,
    flow: FunctionDataflow | None,
    caller_symbol: FunctionSymbol | None,
    module: SourceModule,
    depth: int = 0,
) -> ArgFact:
    base = dict(position=position, keyword=keyword)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return ArgFact(kind="str", value=expr.value, **base)
    if isinstance(expr, ast.Name):
        strings = None
        if flow is not None and stmt is not None:
            values = flow.string_values(stmt, expr.id)
            if values is not NAC and values is not None:
                strings = tuple(sorted(values))
        shape = None
        ret_of = None
        if caller_symbol is not None:
            shape = caller_symbol.shape_of_param(expr.id)
        if shape is None and flow is not None and stmt is not None:
            defs = flow.definitions(stmt, expr.id)
            if defs:
                sources: set[str] = set()
                for d in defs:
                    if d.kind == "param" and caller_symbol is not None:
                        sources.add(f"<param:{d.name}>")
                    elif d.kind == "assign" and isinstance(d.value, ast.Call):
                        sources.add(module.resolve_callee(d.value.func) or "<unknown>")
                    else:
                        sources.add("<unknown>")
                if len(sources) == 1:
                    only = next(iter(sources))
                    if not only.startswith("<"):
                        ret_of = only
        if strings is not None:
            return ArgFact(kind="strs", strings=strings, shape=shape, ret_of=ret_of, **base)
        if shape is not None:
            return ArgFact(kind="shape", shape=shape, ret_of=ret_of, **base)
        if ret_of is not None:
            return ArgFact(kind="ret-of", ret_of=ret_of, **base)
        return ArgFact(kind="other", **base)
    if isinstance(expr, ast.Call):
        spec = module.resolve_callee(expr.func)
        if spec is not None:
            return ArgFact(kind="ret-of", ret_of=spec, **base)
        return ArgFact(kind="other", **base)
    if isinstance(expr, (ast.List, ast.Tuple)) and depth == 0:
        elements = tuple(
            _arg_fact(e, i, None, stmt, flow, caller_symbol, module, depth=1)
            for i, e in enumerate(expr.elts)
        )
        return ArgFact(kind="seq", elements=elements, **base)
    return ArgFact(kind="other", **base)


def _call_sites_in_stmt(
    module: SourceModule,
    stmt: ast.stmt,
    caller: str,
    flow: FunctionDataflow | None,
    caller_symbol: FunctionSymbol | None,
) -> list[CallSite]:
    out: list[CallSite] = []
    discarded = stmt.value if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) else None
    for node in head_walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        args = tuple(
            _arg_fact(a, i, None, stmt, flow, caller_symbol, module)
            for i, a in enumerate(node.args)
            if not isinstance(a, ast.Starred)
        ) + tuple(
            _arg_fact(kw.value, None, kw.arg, stmt, flow, caller_symbol, module)
            for kw in node.keywords
            if kw.arg is not None
        )
        out.append(
            CallSite(
                lineno=node.lineno,
                col=node.col_offset,
                line_text=module.line_at(node.lineno),
                caller=caller,
                callee=module.resolve_callee(node.func),
                callee_name=getattr(node.func, "id", None) or getattr(node.func, "attr", ""),
                result_used=node is not discarded,
                args=args,
            )
        )
    return out


def _statements_of(fn: ast.FunctionDef | ast.AsyncFunctionDef, flow: FunctionDataflow) -> list[ast.stmt]:
    return [stmt for block in flow.cfg.blocks for stmt in block.statements]


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _collect_refs(module: SourceModule, toplevel_functions: dict[str, ast.AST]) -> tuple[list[tuple[str, str]], list[str]]:
    name_refs: list[tuple[str, str]] = []
    attr_refs: set[str] = set()

    def context_of(path: list[ast.AST]) -> str:
        for node in path:
            if id(node) in toplevel_ids:
                return toplevel_names[id(node)]
        return MODULE_CONTEXT

    toplevel_ids = {id(fn) for fn in toplevel_functions.values()}
    toplevel_names = {id(fn): name for name, fn in toplevel_functions.items()}

    seen: set[tuple[str, str]] = set()

    def visit(node: ast.AST, path: list[ast.AST]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = (context_of(path), node.id)
            if key not in seen:
                seen.add(key)
                name_refs.append(key)
        elif isinstance(node, ast.Attribute):
            attr_refs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            path.append(node)
            visit(child, path)
            path.pop()

    visit(module.tree, [])
    return name_refs, sorted(attr_refs)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_module_symbols(module: SourceModule) -> ModuleSymbols:
    """Extract the :class:`ModuleSymbols` facts for one parsed module."""
    tree = module.tree
    toplevel_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    classes: list[str] = []
    methods: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            toplevel_fns[node.name] = node
        elif isinstance(node, ast.ClassDef):
            classes.append(node.name)
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append((f"{node.name}.{sub.name}", sub))

    functions = [_function_symbol(module, fn) for fn in toplevel_fns.values()]
    functions += [
        _function_symbol(module, fn, owner=local.rpartition(".")[0]) for local, fn in methods
    ]
    symbol_by_caller = {f.qualname[len(module.name) + 1 :]: f for f in functions}

    all_names: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        all_names.extend(
                            e.value
                            for e in node.value.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        )

    call_sites: list[CallSite] = []
    # Module-level and class-body statements: no dataflow, literals only.
    module_level: list[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ClassDef):
            module_level.extend(
                s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        else:
            module_level.append(node)
    for stmt in module_level:
        call_sites.extend(
            _call_sites_in_stmt(module, stmt, MODULE_CONTEXT, None, None)
        )
    # Function and method bodies: full dataflow-backed extraction.
    for caller, fn in list(toplevel_fns.items()) + methods:
        flow = FunctionDataflow(fn)
        caller_symbol = symbol_by_caller.get(caller)
        for stmt in _statements_of(fn, flow):
            call_sites.extend(
                _call_sites_in_stmt(module, stmt, caller, flow, caller_symbol)
            )

    name_refs, attr_refs = _collect_refs(module, dict(toplevel_fns))

    metric_names: tuple[str, ...] = ()
    if module.name.endswith("metrics.catalog"):
        metric_names = _extract_metric_names(module)

    return ModuleSymbols(
        name=module.name,
        relpath=module.relpath,
        is_package=module.is_package,
        functions=functions,
        classes=classes,
        all_names=all_names,
        imports=module.imports,
        name_refs=name_refs,
        attr_refs=attr_refs,
        call_sites=call_sites,
        pragmas={k: set(v) for k, v in module.pragmas.items()},
        metric_names=metric_names,
        concurrency=build_module_concurrency(module),
        numerics=build_module_numerics(module),
    )
