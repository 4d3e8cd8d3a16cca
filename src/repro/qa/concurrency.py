"""Per-module concurrency facts: locks, guarded accesses, thread lifecycles.

:func:`build_module_concurrency` distills one parsed
:class:`~repro.qa.source.SourceModule` into a
:class:`ModuleConcurrency` record — everything the flow-aware
concurrency rules (:mod:`repro.qa.rules.concurrency`) and the
project-wide lock inference (:mod:`repro.qa.lockgraph`) need, and
nothing that requires keeping the AST around.  Like
:class:`~repro.qa.symbols.ModuleSymbols` (which embeds this record),
the facts serialize to JSON through :mod:`repro.qa.codec`, so the
incremental cache restores them for unchanged files without
re-parsing.

What is extracted, per function or method:

* **attribute accesses** — every ``self._x`` read or write, tagged with
  the set of canonical lock ids held at the statement.  Held sets
  combine the lexical ``with self._lock:`` nesting (recovered by a
  pre-pass, since the CFG lowers ``with`` bodies without scope markers)
  with explicit ``.acquire()`` / ``.release()`` pairs tracked through
  the CFG by a must-hold forward dataflow (intersection at joins, so a
  lock counts as held only when held on *every* path);
* **lock acquisitions** — each ``with``-item or ``.acquire()`` on a
  recognized lock, with the locks already held before it (the raw
  material of the lock-order graph).  A ``threading.Condition`` built
  over a lock attribute (``Condition(self._lock)``) canonicalizes to
  that lock, so ``with self._cond:`` and ``with self._lock:`` hold the
  same lock for guard inference and lock ordering;
* **calls** — resolved project calls and ``self.method()`` calls with
  the held set at the call site (one-level interprocedural propagation
  happens at index time);
* **blocking operations** — ``queue.put/get``, ``Event.wait``,
  ``Condition.wait``, ``Thread.join``, socket I/O,
  ``open``/``time.sleep``, and direct invocations of
  constructor-injected callables, found by typing ``self._x``
  attributes from their ``__init__`` assignments.  A condition's
  ``wait``/``wait_for`` releases the condition's own lock while it
  waits, so that lock is not counted as held there;
* **thread lifecycle operations** — ``threading.Thread`` /
  ``threading.Timer`` creation (target, daemon flag, storage location),
  ``start()`` and ``join()``.

Canonical lock ids are ``module.Class.attr`` for instance locks,
``module.NAME`` for module-level locks, and ``qualname.name`` for
function-local locks, so the index-time analyses can join them across
modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .cfg import build_cfg
from .dataflow import ForwardAnalysis, head_children, head_walk
from .source import SourceModule

#: Constructor specs recognized as concurrency-relevant attribute kinds.
KIND_CTORS: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Thread": "thread",
    "threading.Timer": "thread",
    "queue.Queue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "queue.SimpleQueue": "queue",
    "socket.socket": "socket",
}

#: Kinds acquirable via ``with`` / ``.acquire()`` (lock-like objects).
LOCK_KINDS = frozenset({"lock", "condition"})

#: Kinds that are internally synchronized (or are synchronizers): their
#: *contents* are thread-safe, so attribute-level guard inference would
#: only produce noise.  Rebinding such an attribute is still tracked
#: for ``thread`` attrs (a ``Thread`` handle swap is a real race).
SYNC_KINDS = frozenset({"lock", "condition", "queue", "event"})

#: Methods that block, per attribute kind.  ``*_nowait`` variants are
#: different method names and therefore never match.
BLOCKING_METHODS: dict[str, frozenset[str]] = {
    "queue": frozenset({"get", "put", "join"}),
    "event": frozenset({"wait"}),
    "thread": frozenset({"join"}),
    "condition": frozenset({"wait", "wait_for"}),
    "socket": frozenset({"accept", "connect", "recv", "recv_into", "send", "sendall"}),
}

#: Resolved call specs that block regardless of receiver typing.
BLOCKING_CALLS: dict[str, str] = {"time.sleep": "sleep"}

#: Method names treated as *writes* to the receiving attribute
#: (container mutation counts toward the guard-ratio denominator).
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "sort", "update",
    }
)


def _self_attr(expr: ast.expr) -> str | None:
    """Attribute name when *expr* is exactly ``self.<attr>``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _wrapped_attr(call: ast.Call) -> str | None:
    """``x`` for ``Condition(self.x)`` or ``Condition(lock=self.x)``."""
    lock = call.args[:1] + [k.value for k in call.keywords if k.arg == "lock"]
    return _self_attr(lock[0]) if lock else None


# ----------------------------------------------------------------------
# fact records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access with the locks held around it."""

    attr: str
    mode: str  # "read" | "write"
    held: tuple[str, ...]
    lineno: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with lock:`` item or ``lock.acquire()`` call."""

    lock: str  # canonical lock id
    held_before: tuple[str, ...]
    lineno: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class ConcCall:
    """One call relevant to interprocedural lock propagation."""

    callee: str | None  # dotted spec resolved through imports, or None
    self_method: str | None  # bare method name for ``self.m()`` calls
    held: tuple[str, ...]
    lineno: int
    col: int
    line_text: str = ""


@dataclass(frozen=True)
class BlockingOp:
    """One potentially blocking operation (queue/event/IO/callback)."""

    kind: str  # "queue.get", "event.wait", "callback", "sleep", "file-io", ...
    detail: str  # rendered receiver, e.g. "self._queue.get"
    held: tuple[str, ...]
    lineno: int
    col: int
    line_text: str = ""
    #: Locks the op itself releases while it blocks (a condition's
    #: ``wait`` releases the condition's lock).
    releases: tuple[str, ...] = ()

    def held_with(self, extra: frozenset[str]) -> frozenset[str]:
        """Locks held while the op blocks, callers' *extra* included."""
        return (frozenset(self.held) | extra) - frozenset(self.releases)


@dataclass(frozen=True)
class ThreadOp:
    """One thread lifecycle operation: create, start, or join."""

    kind: str  # "create" | "start" | "join"
    target: str | None  # create: "self.<method>" or a dotted/bare spec
    daemon: bool | None  # create: explicit daemon= flag, None when absent
    storage: str | None  # "self.<attr>", a local name, or None
    held: tuple[str, ...]
    lineno: int
    col: int
    line_text: str = ""


@dataclass
class FunctionConcurrency:
    """Concurrency facts of one function or method."""

    name: str
    qualname: str
    cls: str | None  # owning class name, None for module functions
    lineno: int
    accesses: list[AttrAccess] = field(default_factory=list)
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    calls: list[ConcCall] = field(default_factory=list)
    blocking: list[BlockingOp] = field(default_factory=list)
    thread_ops: list[ThreadOp] = field(default_factory=list)
    #: Line of the last ``self.<attr> = ...`` assignment (0 when none);
    #: the ``thread-lifecycle`` rule compares thread starts in
    #: ``__init__`` against it (start-before-fully-constructed).
    last_self_assign_line: int = 0


@dataclass
class ClassConcurrency:
    """Concurrency-relevant shape of one class."""

    name: str
    qualname: str  # module.Class
    lineno: int
    bases: tuple[str, ...] = ()  # resolved dotted specs or bare names
    lock_attrs: tuple[str, ...] = ()  # attrs holding lock/condition objects
    #: attr → inferred kind ("lock", "queue", "event", "thread",
    #: "socket", "condition", or "param" for ctor-injected values).
    attr_kinds: dict[str, str] = field(default_factory=dict)
    methods: tuple[str, ...] = ()  # bare method names defined on the class
    #: condition attr → the lock attr it was built over
    #: (``self._cond = threading.Condition(self._lock)``).
    cond_locks: dict[str, str] = field(default_factory=dict)

    def lock_id(self, attr: str) -> str:
        """Canonical lock id of lock attribute *attr*."""
        return f"{self.qualname}.{self.cond_locks.get(attr, attr)}"


@dataclass
class ModuleConcurrency:
    """All concurrency facts of one module."""

    module_locks: tuple[str, ...] = ()  # module-level lock global names
    classes: list[ClassConcurrency] = field(default_factory=list)
    functions: list[FunctionConcurrency] = field(default_factory=list)

    def is_trivial(self) -> bool:
        """True when nothing here can matter to any concurrency rule."""
        return (
            not self.module_locks
            and not self.classes
            and all(
                not f.accesses
                and not f.acquisitions
                and not f.blocking
                and not f.thread_ops
                for f in self.functions
            )
        )


# ----------------------------------------------------------------------
# attribute / local typing pre-passes
# ----------------------------------------------------------------------


def _scope_statements(body: list[ast.stmt]):
    """All statements under *body*, not descending into nested scopes."""
    stack = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, name, ()))
        for handler in getattr(stmt, "handlers", ()):
            stack.extend(handler.body)
        for case in getattr(stmt, "cases", ()):
            stack.extend(case.body)


def _assigned_value(stmt: ast.stmt) -> tuple[list[ast.expr], ast.expr | None]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), stmt.value
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target], stmt.value
    return [], None


def _class_concurrency(module: SourceModule, node: ast.ClassDef) -> ClassConcurrency:
    """Scan a class for lock attributes and attribute typing."""
    methods: list[str] = []
    attr_kinds: dict[str, str] = {}
    cond_over: dict[str, str] = {}
    for sub in node.body:
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        methods.append(sub.name)
        params = {a.arg for a in list(sub.args.posonlyargs) + list(sub.args.args)}
        for stmt in _scope_statements(sub.body):
            targets, value = _assigned_value(stmt)
            if value is None:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None or attr in attr_kinds:
                    continue
                if isinstance(value, ast.Call):
                    spec = module.resolve_callee(value.func)
                    kind = KIND_CTORS.get(spec or "")
                    if kind is not None:
                        attr_kinds[attr] = kind
                    over = _wrapped_attr(value) if kind == "condition" else None
                    if over is not None:
                        cond_over[attr] = over
                elif (
                    sub.name == "__init__"
                    and isinstance(value, ast.Name)
                    and value.id in params
                ):
                    # Constructor-injected value: calling it later is a
                    # user callback (opaque, possibly blocking).
                    attr_kinds[attr] = "param"
    bases = tuple(
        module.resolve_callee(b)
        or (b.id if isinstance(b, ast.Name) else getattr(b, "attr", ""))
        for b in node.bases
    )
    lock_attrs = tuple(
        sorted(a for a, k in attr_kinds.items() if k in LOCK_KINDS)
    )
    cond_locks = {c: lock for c, lock in cond_over.items() if attr_kinds.get(lock) == "lock"}
    return ClassConcurrency(
        name=node.name,
        qualname=f"{module.name}.{node.name}",
        lineno=node.lineno,
        bases=bases,
        lock_attrs=lock_attrs,
        attr_kinds=attr_kinds,
        methods=tuple(methods),
        cond_locks=cond_locks,
    )


def _module_locks(module: SourceModule) -> tuple[str, ...]:
    """Module-level globals assigned a lock constructor."""
    out: list[str] = []
    for stmt in module.tree.body:
        targets, value = _assigned_value(stmt)
        if not isinstance(value, ast.Call):
            continue
        spec = module.resolve_callee(value.func)
        if KIND_CTORS.get(spec or "") not in LOCK_KINDS:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.append(target.id)
    return tuple(sorted(out))


# ----------------------------------------------------------------------
# CFG-based acquire/release tracking
# ----------------------------------------------------------------------


class _MustHeldLocks(ForwardAnalysis):
    """Must-hold analysis over explicit ``.acquire()``/``.release()``.

    The fact maps canonical lock id → True; the join intersects key
    sets, so a lock is held at a statement only when acquired on every
    incoming path — the conservative direction for guard inference.
    """

    def __init__(self, canon) -> None:
        self._canon = canon

    def entry_fact(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict:
        return {}

    def join(self, facts: list[dict]) -> dict:
        if not facts:
            return {}
        keys = set(facts[0])
        for f in facts[1:]:
            keys &= set(f)
        return {k: True for k in sorted(keys)}

    def transfer(self, fact: dict, stmt: ast.stmt) -> dict:
        ops: list[tuple[str, str]] = []
        for node in head_walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                lock = self._canon(node.func.value)
                if lock is not None:
                    ops.append((node.func.attr, lock))
        if not ops:
            return fact
        out = dict(fact)
        for op, lock in ops:
            if op == "acquire":
                out[lock] = True
            else:
                out.pop(lock, None)
        return out


def _has_acquire(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "acquire":
            return True
    return False


# ----------------------------------------------------------------------
# per-function extraction
# ----------------------------------------------------------------------


class _FunctionExtractor:
    """One lexical walk of a function body collecting all fact kinds."""

    def __init__(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ClassConcurrency | None,
        module_locks: tuple[str, ...],
    ) -> None:
        self.module = module
        self.fn = fn
        self.owner = owner
        self.module_locks = set(module_locks)
        local = f"{owner.name}.{fn.name}" if owner else fn.name
        self.qualname = f"{module.name}.{local}"
        self.facts = FunctionConcurrency(
            name=fn.name,
            qualname=self.qualname,
            cls=owner.name if owner else None,
            lineno=fn.lineno,
        )
        #: local name → (kind, origin storage like "self._thread" or None)
        self.local_kinds: dict[str, tuple[str, str | None]] = {}
        self._prime_local_kinds()
        self._acq_at: dict[int, tuple[str, ...]] = {}
        if _has_acquire(fn):
            analysis = _MustHeldLocks(self._canonical_lock)
            analysis.run(fn, build_cfg(fn))
            for stmt, fact in analysis.statement_facts():
                if fact:
                    self._acq_at[id(stmt)] = tuple(sorted(fact))

    def _line(self, lineno: int) -> str:
        return self.module.line_at(lineno)

    # -- typing ---------------------------------------------------------
    def _prime_local_kinds(self) -> None:
        """Type locals assigned concurrency objects (order-insensitive)."""
        for stmt in _scope_statements(self.fn.body):
            targets, value = _assigned_value(stmt)
            if value is None:
                continue
            kind_origin: tuple[str, str | None] | None = None
            if isinstance(value, ast.Call):
                spec = self.module.resolve_callee(value.func)
                kind = KIND_CTORS.get(spec or "")
                if kind is not None:
                    kind_origin = (kind, None)
            else:
                attr = _self_attr(value)
                if attr is not None and self.owner is not None:
                    kind = self.owner.attr_kinds.get(attr)
                    if kind is not None:
                        kind_origin = (kind, f"self.{attr}")
            if kind_origin is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.local_kinds[target.id] = kind_origin

    def _canonical_lock(self, expr: ast.expr) -> str | None:
        """Canonical lock id of *expr*, or None when not a known lock."""
        attr = _self_attr(expr)
        if attr is not None:
            if self.owner is not None and attr in self.owner.lock_attrs:
                return self.owner.lock_id(attr)
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.module_locks:
                return f"{self.module.name}.{expr.id}"
            local = self.local_kinds.get(expr.id)
            if local is not None and local[0] in LOCK_KINDS:
                origin = local[1]
                if origin is not None and self.owner is not None:
                    return self.owner.lock_id(origin[len("self."):])
                return f"{self.qualname}.{expr.id}"
        return None

    def _receiver_kind(self, expr: ast.expr) -> tuple[str, str] | None:
        """(kind, rendered receiver) for a typed attribute or local."""
        attr = _self_attr(expr)
        if attr is not None and self.owner is not None:
            kind = self.owner.attr_kinds.get(attr)
            if kind is not None:
                return kind, f"self.{attr}"
        if isinstance(expr, ast.Name):
            local = self.local_kinds.get(expr.id)
            if local is not None:
                return local[0], local[1] or expr.id
        return None

    # -- walking --------------------------------------------------------
    def run(self) -> FunctionConcurrency:
        self._walk(self.fn.body, ())
        return self.facts

    def _effective(self, stmt: ast.stmt, lexical: tuple[str, ...]) -> tuple[str, ...]:
        acquired = self._acq_at.get(id(stmt), ())
        if not acquired:
            return lexical
        return tuple(sorted(set(lexical) | set(acquired)))

    def _walk(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scope: opaque
            eff = self._effective(stmt, held)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in stmt.items:
                    lock = self._canonical_lock(item.context_expr)
                    if lock is not None:
                        self.facts.acquisitions.append(
                            LockAcquisition(
                                lock=lock,
                                held_before=tuple(sorted(inner | set(eff))),
                                lineno=item.context_expr.lineno,
                                col=item.context_expr.col_offset,
                                line_text=self._line(item.context_expr.lineno),
                            )
                        )
                        inner.add(lock)
                    else:
                        self._scan_expr(item.context_expr, eff)
                self._walk(stmt.body, tuple(sorted(inner)))
                continue
            self._scan_stmt(stmt, eff)
            for name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, name, None)
                if nested:
                    self._walk(nested, held)
            for handler in getattr(stmt, "handlers", ()):
                self._walk(handler.body, held)
            for case in getattr(stmt, "cases", ()):
                self._walk(case.body, held)

    # -- statement heads ------------------------------------------------
    def _scan_stmt(self, stmt: ast.stmt, eff: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(stmt.targets) if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._scan_target(target, eff)
            if stmt.value is not None:
                storage = None
                if len(targets) == 1:
                    if isinstance(targets[0], ast.Name):
                        storage = targets[0].id
                    else:
                        attr = _self_attr(targets[0])
                        if attr is not None:
                            storage = f"self.{attr}"
                self._scan_expr(stmt.value, eff, storage=storage)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._scan_target(target, eff)
            return
        for child in head_children(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, eff)

    def _scan_target(self, target: ast.expr, eff: tuple[str, ...]) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_access(attr, "write", target, eff)
            self.facts.last_self_assign_line = max(
                self.facts.last_self_assign_line, target.lineno
            )
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self._record_access(attr, "write", target, eff)
            else:
                self._scan_expr(target.value, eff)
            self._scan_expr(target.slice, eff)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._scan_target(elt, eff)
            return
        if isinstance(target, ast.Starred):
            self._scan_target(target.value, eff)
            return
        if isinstance(target, ast.Attribute):
            self._scan_expr(target.value, eff)

    # -- expressions ----------------------------------------------------
    def _record_access(
        self, attr: str, mode: str, node: ast.AST, eff: tuple[str, ...]
    ) -> None:
        owner = self.owner
        if owner is None:
            return
        if attr in owner.lock_attrs or attr in owner.methods:
            return  # lock handles and bound methods are not shared state
        self.facts.accesses.append(
            AttrAccess(
                attr=attr,
                mode=mode,
                held=eff,
                lineno=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                line_text=self._line(getattr(node, "lineno", 0)),
            )
        )

    def _scan_expr(
        self, expr: ast.expr, eff: tuple[str, ...], storage: str | None = None
    ) -> None:
        if isinstance(expr, (ast.Lambda, ast.GeneratorExp)):
            return  # deferred execution: held sets would be wrong
        if isinstance(expr, ast.Call):
            self._scan_call(expr, eff, storage)
            return
        attr = _self_attr(expr)
        if attr is not None:
            self._record_access(attr, "read", expr, eff)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, eff)

    def _scan_call(
        self, call: ast.Call, eff: tuple[str, ...], storage: str | None
    ) -> None:
        func = call.func
        handled_func = False
        if isinstance(func, ast.Attribute):
            meth = func.attr
            recv_attr = _self_attr(func.value)
            if recv_attr is not None:
                # self.<attr>.<meth>(...): container/primitive method.
                if meth in ("acquire", "release"):
                    if self._canonical_lock(func.value) is not None:
                        if meth == "acquire":
                            self.facts.acquisitions.append(
                                LockAcquisition(
                                    lock=self._canonical_lock(func.value),  # type: ignore[arg-type]
                                    held_before=eff,
                                    lineno=call.lineno,
                                    col=call.col_offset,
                                    line_text=self._line(call.lineno),
                                )
                            )
                        handled_func = True
                if not handled_func:
                    mode = "write" if meth in MUTATOR_METHODS else "read"
                    self._record_access(recv_attr, mode, func.value, eff)
                    self._typed_method_ops(func.value, meth, call, eff)
                handled_func = True
            else:
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and self.owner is not None
                ):
                    if meth in self.owner.methods:
                        self.facts.calls.append(
                            ConcCall(
                                callee=None,
                                self_method=meth,
                                held=eff,
                                lineno=call.lineno,
                                col=call.col_offset,
                                line_text=self._line(call.lineno),
                            )
                        )
                    else:
                        # self.<attr>(...) — calling a stored value.
                        self._record_access(meth, "read", func, eff)
                        if self.owner.attr_kinds.get(meth) == "param":
                            self.facts.blocking.append(
                                BlockingOp(
                                    kind="callback",
                                    detail=f"self.{meth}",
                                    held=eff,
                                    lineno=call.lineno,
                                    col=call.col_offset,
                                    line_text=self._line(call.lineno),
                                )
                            )
                    handled_func = True
                else:
                    typed = self._receiver_kind(func.value)
                    if typed is not None:
                        self._typed_method_ops(func.value, meth, call, eff)
                        handled_func = True
        spec = self.module.resolve_callee(func)
        if spec is not None:
            self.facts.calls.append(
                ConcCall(
                    callee=spec,
                    self_method=None,
                    held=eff,
                    lineno=call.lineno,
                    col=call.col_offset,
                    line_text=self._line(call.lineno),
                )
            )
            if spec in BLOCKING_CALLS:
                self.facts.blocking.append(
                    BlockingOp(
                        kind=BLOCKING_CALLS[spec],
                        detail=spec,
                        held=eff,
                        lineno=call.lineno,
                        col=call.col_offset,
                        line_text=self._line(call.lineno),
                    )
                )
            if spec in ("threading.Thread", "threading.Timer"):
                self._thread_create(call, spec, eff, storage)
            handled_func = True
        if isinstance(func, ast.Name) and func.id == "open":
            self.facts.blocking.append(
                BlockingOp(
                    kind="file-io",
                    detail="open",
                    held=eff,
                    lineno=call.lineno,
                    col=call.col_offset,
                    line_text=self._line(call.lineno),
                )
            )
            handled_func = True
        if not handled_func and isinstance(func, ast.Attribute):
            self._scan_expr(func.value, eff)
        for arg in call.args:
            self._scan_expr(arg, eff)
        for kw in call.keywords:
            self._scan_expr(kw.value, eff)

    def _typed_method_ops(
        self, receiver: ast.expr, meth: str, call: ast.Call, eff: tuple[str, ...]
    ) -> None:
        """Blocking / thread-lifecycle ops on a typed receiver."""
        typed = self._receiver_kind(receiver)
        if typed is None:
            return
        kind, rendered = typed
        if meth in BLOCKING_METHODS.get(kind, frozenset()):
            if not self._nonblocking_override(call):
                own = self._canonical_lock(receiver) if kind == "condition" else None
                releases = (own,) if own is not None else ()
                self.facts.blocking.append(
                    BlockingOp(
                        kind=f"{kind}.{meth}",
                        detail=f"{rendered}.{meth}",
                        held=eff,
                        lineno=call.lineno,
                        col=call.col_offset,
                        line_text=self._line(call.lineno),
                        releases=releases,
                    )
                )
        if kind == "thread" and meth in ("start", "join"):
            self.facts.thread_ops.append(
                ThreadOp(
                    kind=meth,
                    target=None,
                    daemon=None,
                    storage=rendered,
                    held=eff,
                    lineno=call.lineno,
                    col=call.col_offset,
                    line_text=self._line(call.lineno),
                )
            )

    @staticmethod
    def _nonblocking_override(call: ast.Call) -> bool:
        """True for ``get/put(..., block=False)`` style calls."""
        for kw in call.keywords:
            if kw.arg == "block" and isinstance(kw.value, ast.Constant):
                return not bool(kw.value.value)
        return False

    def _thread_create(
        self, call: ast.Call, spec: str, eff: tuple[str, ...], storage: str | None
    ) -> None:
        target_expr: ast.expr | None = None
        daemon: bool | None = None
        if spec == "threading.Timer":
            if len(call.args) >= 2:
                target_expr = call.args[1]
        for kw in call.keywords:
            if kw.arg == "target" or (spec == "threading.Timer" and kw.arg == "function"):
                target_expr = kw.value
            elif kw.arg == "daemon" and isinstance(kw.value, ast.Constant):
                daemon = bool(kw.value.value)
        target: str | None = None
        if target_expr is not None:
            attr = _self_attr(target_expr)
            if attr is not None:
                target = f"self.{attr}"
            elif isinstance(target_expr, ast.Name):
                target = self.module.resolve_callee(target_expr) or target_expr.id
        self.facts.thread_ops.append(
            ThreadOp(
                kind="create",
                target=target,
                daemon=daemon,
                storage=storage,
                held=eff,
                lineno=call.lineno,
                col=call.col_offset,
                line_text=self._line(call.lineno),
            )
        )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_module_concurrency(module: SourceModule) -> ModuleConcurrency | None:
    """Extract concurrency facts for one module (None when trivial)."""
    tree = module.tree
    classes: list[ClassConcurrency] = []
    functions: list[FunctionConcurrency] = []
    module_locks = _module_locks(module)

    class_nodes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    class_facts = {n.name: _class_concurrency(module, n) for n in class_nodes}

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_FunctionExtractor(module, node, None, module_locks).run())
        elif isinstance(node, ast.ClassDef):
            owner = class_facts[node.name]
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(_FunctionExtractor(module, sub, owner, module_locks).run())

    # Only classes with concurrency substance are kept (a class with no
    # lock/typed attrs and no thread ops cannot produce findings).
    for name, facts in class_facts.items():
        if facts.lock_attrs or facts.attr_kinds or any(
            f.cls == name and (f.thread_ops or f.acquisitions) for f in functions
        ):
            classes.append(facts)

    out = ModuleConcurrency(
        module_locks=module_locks,
        classes=classes,
        functions=functions,
    )
    if out.is_trivial():
        return None
    return out


__all__ = [
    "AttrAccess",
    "BLOCKING_CALLS",
    "BLOCKING_METHODS",
    "BlockingOp",
    "ClassConcurrency",
    "ConcCall",
    "FunctionConcurrency",
    "KIND_CTORS",
    "LOCK_KINDS",
    "LockAcquisition",
    "ModuleConcurrency",
    "MUTATOR_METHODS",
    "SYNC_KINDS",
    "ThreadOp",
    "build_module_concurrency",
]
