"""Project-wide concurrency inference over per-module facts.

:class:`ConcurrencyIndex` joins every module's
:class:`~repro.qa.concurrency.ModuleConcurrency` record (carried by
:class:`~repro.qa.symbols.ModuleSymbols`) into the structures the four
concurrency rules and the ``repro-qa concurrency`` CLI verb consume:

* **per-class guard tables** — for each class, which ``self._*``
  attribute is protected by which lock, inferred from the fraction of
  its writes performed with a lock held (threshold
  :data:`GUARD_RATIO`); accesses in ``__init__`` are ignored
  (construction is single-threaded);
* **inherited held sets** — a private helper whose every in-class call
  site holds a lock is analyzed as if it held that lock itself
  (callers-guarantee-the-lock is a common idiom: ``_evict_over_bound``
  style helpers);
* **entry points and reachability** — public methods, non-init
  dunders, thread targets, and ``do_*`` HTTP handler methods, closed
  over ``self.method()`` calls: only code reachable from an entry can
  race, so only it produces findings;
* **a global lock-order graph** — direct nested acquisitions plus
  one-level interprocedural edges through a ``may-acquire`` fixpoint
  over the project call graph; its cycles are potential deadlocks;
* **deterministic renderers** — guard table text, lock-order text, and
  DOT export, all fully sorted so output is stable across runs.

Everything here is computed from serializable facts: warm cache runs
never re-parse a file to answer concurrency queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import ProjectIndex
from .concurrency import (
    AttrAccess,
    ClassConcurrency,
    FunctionConcurrency,
    ModuleConcurrency,
    SYNC_KINDS,
)

#: A write ratio at or above this infers a guard (below it, the class
#: is treated as deliberately unguarded — e.g. GIL-atomic counters).
GUARD_RATIO = 0.8

#: Dunders that run before or after the object is shared.
_UNSHARED_DUNDERS = frozenset({"__init__", "__new__", "__del__"})


@dataclass(frozen=True)
class Witness:
    """Where one lock-order edge was observed."""

    path: str
    lineno: int
    qualname: str
    line_text: str = ""


@dataclass
class GuardInfo:
    """One inferred guard: attribute → lock, with its evidence."""

    attr: str
    guard: str  # canonical lock id
    guarded_writes: int
    total_writes: int
    #: Reachable accesses missing the guard: (method name, access).
    violations: list[tuple[str, AttrAccess]] = field(default_factory=list)


@dataclass
class ClassAnalysis:
    """Everything inferred about one class."""

    cls: ClassConcurrency
    relpath: str
    methods: dict[str, FunctionConcurrency]
    entries: tuple[str, ...]
    reachable: tuple[str, ...]
    #: method name → locks held at every in-class call site.
    inherited: dict[str, frozenset[str]]
    #: attr → inferred guard info, insertion-ordered by attr.
    guards: dict[str, GuardInfo]

    def effective_held(self, method: str, held: tuple[str, ...]) -> frozenset[str]:
        return frozenset(held) | self.inherited.get(method, frozenset())


class LockOrderGraph:
    """Directed acquired-before graph over canonical lock ids."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], Witness] = {}

    def add(self, src: str, dst: str, witness: Witness) -> None:
        if src == dst:
            return
        key = (src, dst)
        old = self.edges.get(key)
        if old is None or (witness.path, witness.lineno) < (old.path, old.lineno):
            self.edges[key] = witness

    @property
    def nodes(self) -> list[str]:
        out: set[str] = set()
        for src, dst in self.edges:
            out.add(src)
            out.add(dst)
        return sorted(out)

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in sorted(self.edges):
            adj[src].append(dst)
        return adj

    def cycles(self) -> list[tuple[tuple[str, ...], list[Witness]]]:
        """Strongly connected components with ≥2 locks, sorted.

        Each cycle is (sorted lock ids, witnesses of the in-cycle edges
        sorted by location).  A two-lock inversion and a longer cycle
        both surface as one component — one finding per deadlock knot.
        """
        adj = self.adjacency()
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator position) frames.
            work = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index_of[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = adj[node]
                for i in range(pos, len(succs)):
                    nxt = succs[i]
                    if nxt not in index_of:
                        work.append((node, i + 1))
                        work.append((nxt, 0))
                        recurse = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index_of[nxt])
                if recurse:
                    continue
                if low[node] == index_of[node]:
                    comp: list[str] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for node in self.nodes:
            if node not in index_of:
                strongconnect(node)

        out: list[tuple[tuple[str, ...], list[Witness]]] = []
        for comp in sccs:
            members = set(comp)
            if len(comp) < 2:
                continue
            witnesses = [
                w
                for (src, dst), w in sorted(self.edges.items())
                if src in members and dst in members
            ]
            witnesses.sort(key=lambda w: (w.path, w.lineno, w.qualname))
            out.append((tuple(sorted(comp)), witnesses))
        out.sort(key=lambda c: c[0])
        return out


class ConcurrencyIndex:
    """All concurrency inference over one :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: qualname → function facts, across every module.
        self.functions: dict[str, FunctionConcurrency] = {}
        self.relpath_of: dict[str, str] = {}
        self.class_by_qual: dict[str, ClassConcurrency] = {}
        self.class_analyses: list[ClassAnalysis] = []
        #: function qualname → locks guaranteed held by all callers.
        self.extra_held: dict[str, frozenset[str]] = {}
        self._collect()
        self._analyze_classes()
        self.may_acquire = self._may_acquire()
        self.lock_order = self._lock_order()

    @classmethod
    def of(cls, index: ProjectIndex) -> "ConcurrencyIndex":
        """Memoized accessor: one build per :class:`ProjectIndex`."""
        cached = getattr(index, "_concurrency_index", None)
        if cached is None:
            cached = cls(index)
            index._concurrency_index = cached  # type: ignore[attr-defined]
        return cached

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for name in sorted(self.index.modules):
            mod = self.index.modules[name]
            conc = mod.concurrency
            if conc is None:
                continue
            for fn in conc.functions:
                self.functions[fn.qualname] = fn
                self.relpath_of[fn.qualname] = mod.relpath
            for cls in conc.classes:
                self.class_by_qual[cls.qualname] = cls

    def _module_conc(self, module_name: str) -> ModuleConcurrency | None:
        mod = self.index.modules.get(module_name)
        return mod.concurrency if mod is not None else None

    # ------------------------------------------------------------------
    # per-class analysis
    # ------------------------------------------------------------------
    def _analyze_classes(self) -> None:
        for qual in sorted(self.class_by_qual):
            cls = self.class_by_qual[qual]
            module_name = qual.rsplit(".", 1)[0]
            mod = self.index.modules.get(module_name)
            relpath = mod.relpath if mod is not None else "<unknown>"
            methods = {
                fn.name: fn
                for fn in self.functions.values()
                if fn.cls == cls.name and fn.qualname.startswith(module_name + ".")
            }
            analysis = self._analyze_class(cls, relpath, methods)
            self.class_analyses.append(analysis)
            for name, extra in analysis.inherited.items():
                if extra:
                    self.extra_held[methods[name].qualname] = extra

    def _analyze_class(
        self,
        cls: ClassConcurrency,
        relpath: str,
        methods: dict[str, FunctionConcurrency],
    ) -> ClassAnalysis:
        entries = self._entries(cls, methods)
        reachable = self._reachable(methods, entries)
        inherited = self._inherited_held(methods, entries)
        analysis = ClassAnalysis(
            cls=cls,
            relpath=relpath,
            methods=methods,
            entries=tuple(sorted(entries)),
            reachable=tuple(sorted(reachable)),
            inherited=inherited,
            guards={},
        )
        self._infer_guards(analysis)
        return analysis

    @staticmethod
    def _entries(cls: ClassConcurrency, methods: dict[str, FunctionConcurrency]) -> set[str]:
        thread_targets = {
            op.target[len("self.") :]
            for fn in methods.values()
            for op in fn.thread_ops
            if op.kind == "create" and op.target and op.target.startswith("self.")
        }
        is_handler = any(b.endswith("BaseHTTPRequestHandler") for b in cls.bases)
        entries: set[str] = set()
        for name in methods:
            if not name.startswith("_"):
                entries.add(name)
            elif (
                name.startswith("__")
                and name.endswith("__")
                and name not in _UNSHARED_DUNDERS
            ):
                entries.add(name)
            elif is_handler and name.startswith("do_"):
                entries.add(name)
        entries |= thread_targets & set(methods)
        return entries

    @staticmethod
    def _reachable(methods: dict[str, FunctionConcurrency], entries: set[str]) -> set[str]:
        reach = set(entries)
        work = list(entries)
        while work:
            for call in methods[work.pop()].calls:
                m = call.self_method
                if m is not None and m in methods and m not in reach:
                    reach.add(m)
                    work.append(m)
        return reach

    @staticmethod
    def _inherited_held(
        methods: dict[str, FunctionConcurrency], entries: set[str]
    ) -> dict[str, frozenset[str]]:
        """Locks held at *every* in-class call site of private helpers."""
        universe: frozenset[str] = frozenset(
            lock
            for fn in methods.values()
            for rec in list(fn.accesses) + list(fn.calls) + list(fn.blocking)
            for lock in rec.held
        ) | frozenset(a.lock for fn in methods.values() for a in fn.acquisitions)
        candidates = {
            name
            for name in methods
            if name.startswith("_") and not name.startswith("__") and name not in entries
        }
        inherited: dict[str, frozenset[str]] = {name: universe for name in candidates}

        def held_at(caller: str, held: tuple[str, ...]) -> frozenset[str]:
            return frozenset(held) | inherited.get(caller, frozenset())

        for _ in range(len(candidates) + 1):
            changed = False
            for name in sorted(candidates):
                sites = [
                    (caller, call)
                    for caller, fn in methods.items()
                    for call in fn.calls
                    if call.self_method == name
                ]
                if not sites:
                    new: frozenset[str] = frozenset()
                else:
                    caller0, call0 = sites[0]
                    new = held_at(caller0, call0.held)
                    for caller, call in sites[1:]:
                        new &= held_at(caller, call.held)
                if new != inherited[name]:
                    inherited[name] = new
                    changed = True
            if not changed:
                break
        return {name: locks for name, locks in inherited.items() if locks}

    def _infer_guards(self, analysis: ClassAnalysis) -> None:
        cls = analysis.cls
        skip = set(cls.lock_attrs) | {
            a for a, k in cls.attr_kinds.items() if k in SYNC_KINDS
        }
        reach = set(analysis.reachable)
        by_attr: dict[str, list[tuple[str, AttrAccess]]] = {}
        for name, fn in analysis.methods.items():
            if fn.name == "__init__":
                continue
            for access in fn.accesses:
                if access.attr not in skip:
                    by_attr.setdefault(access.attr, []).append((name, access))
        for attr in sorted(by_attr):
            records = by_attr[attr]
            writes = [r for r in records if r[1].mode == "write"]
            if not writes:
                continue
            guarded = [
                r for r in writes if analysis.effective_held(r[0], r[1].held)
            ]
            if len(guarded) / len(writes) < GUARD_RATIO:
                continue
            counts: dict[str, int] = {}
            for name, access in guarded:
                for lock in analysis.effective_held(name, access.held):
                    counts[lock] = counts.get(lock, 0) + 1
            guard = sorted(counts, key=lambda lock: (-counts[lock], lock))[0]
            info = GuardInfo(
                attr=attr,
                guard=guard,
                guarded_writes=len(guarded),
                total_writes=len(writes),
            )
            for name, access in records:
                if name not in reach:
                    continue
                if guard not in analysis.effective_held(name, access.held):
                    info.violations.append((name, access))
            info.violations.sort(key=lambda v: (v[1].lineno, v[1].col, v[0]))
            analysis.guards[attr] = info

    # ------------------------------------------------------------------
    # interprocedural lock propagation
    # ------------------------------------------------------------------
    def resolve_call(self, fn: FunctionConcurrency, callee: str | None, self_method: str | None) -> str | None:
        """Qualname of a call's target function, when it is in-project."""
        if self_method is not None and fn.cls is not None:
            qual = f"{fn.qualname.rsplit('.', 1)[0]}.{self_method}"
            return qual if qual in self.functions else None
        spec = callee
        seen: set[str] = set()
        while spec is not None and spec not in seen:
            seen.add(spec)
            if spec in self.functions:
                return spec
            if spec in self.class_by_qual:
                init = f"{spec}.__init__"
                return init if init in self.functions else None
            prefix, _, name = spec.rpartition(".")
            if not prefix:
                return None
            mod = self.index.modules.get(prefix)
            if mod is None:
                return None
            spec = mod.imports.get(name)
        return None

    def _may_acquire(self) -> dict[str, frozenset[str]]:
        may: dict[str, set[str]] = {
            q: {a.lock for a in fn.acquisitions} for q, fn in self.functions.items()
        }
        for _ in range(len(self.functions) + 1):
            changed = False
            for q in sorted(self.functions):
                fn = self.functions[q]
                for call in fn.calls:
                    target = self.resolve_call(fn, call.callee, call.self_method)
                    if target is None:
                        continue
                    extra = may[target] - may[q]
                    if extra:
                        may[q] |= extra
                        changed = True
            if not changed:
                break
        return {q: frozenset(locks) for q, locks in may.items()}

    def _lock_order(self) -> LockOrderGraph:
        graph = LockOrderGraph()
        for q in sorted(self.functions):
            fn = self.functions[q]
            relpath = self.relpath_of[q]
            extra = self.extra_held.get(q, frozenset())
            for acq in fn.acquisitions:
                held = frozenset(acq.held_before) | extra
                for h in sorted(held):
                    graph.add(
                        h,
                        acq.lock,
                        Witness(relpath, acq.lineno, q, acq.line_text),
                    )
            for call in fn.calls:
                held = frozenset(call.held) | extra
                if not held:
                    continue
                target = self.resolve_call(fn, call.callee, call.self_method)
                if target is None:
                    continue
                for lock in sorted(self.may_acquire.get(target, frozenset()) - held):
                    for h in sorted(held):
                        graph.add(
                            h,
                            lock,
                            Witness(relpath, call.lineno, q, call.line_text),
                        )
        return graph

    # ------------------------------------------------------------------
    # blocking helpers (used by the blocking-under-lock rule)
    # ------------------------------------------------------------------
    def blocking_unheld(self, qualname: str, held: frozenset[str]) -> list[str]:
        """Blocking op kinds of *qualname* that block under a caller's *held*.

        Only ops not already under a lock there count: a callee whose own
        blocking ops already run with a lock held is flagged at its own
        site; calling it under another lock is then a lock-order
        question, not a second blocking finding.  An op that releases
        every lock in *held* while it waits (a condition's ``wait``
        under its own lock) does not block under them.
        """
        fn = self.functions.get(qualname)
        if fn is None:
            return []
        extra = self.extra_held.get(qualname, frozenset())
        kinds = sorted(
            {
                op.kind
                for op in fn.blocking
                if not op.held_with(extra) and held - frozenset(op.releases)
            }
        )
        return kinds


# ----------------------------------------------------------------------
# renderers (CLI verb output — fully sorted, deterministic)
# ----------------------------------------------------------------------


def _short_lock(lock: str, cls: ClassConcurrency | None = None) -> str:
    """Compact display form: ``self._lock`` for own-class locks."""
    if cls is not None and lock.startswith(cls.qualname + "."):
        return f"self.{lock[len(cls.qualname) + 1 :]}"
    return lock


def render_guard_tables(conc: ConcurrencyIndex) -> str:
    """Per-class guard tables as stable plain text."""
    lines: list[str] = []
    for analysis in sorted(conc.class_analyses, key=lambda a: a.cls.qualname):
        cls = analysis.cls
        lines.append(f"{cls.qualname} ({analysis.relpath}:{cls.lineno})")
        lines.append(
            "  entries: " + (", ".join(analysis.entries) if analysis.entries else "(none)")
        )
        if cls.lock_attrs:
            lines.append("  locks: " + ", ".join(f"self.{a}" for a in cls.lock_attrs))
        if analysis.guards:
            for attr in sorted(analysis.guards):
                info = analysis.guards[attr]
                lines.append(
                    f"  self.{attr}: guarded by {_short_lock(info.guard, cls)}"
                    f" ({info.guarded_writes}/{info.total_writes} writes,"
                    f" {len(info.violations)} violation(s))"
                )
        else:
            lines.append("  (no guarded attributes inferred)")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n" if lines else "(no classes with locks found)\n"


def render_lock_order(conc: ConcurrencyIndex) -> str:
    """The lock-order graph and its cycles as stable plain text."""
    graph = conc.lock_order
    lines = ["lock-order graph:"]
    if not graph.edges:
        lines.append("  (no nested acquisitions found)")
    for (src, dst) in sorted(graph.edges):
        w = graph.edges[(src, dst)]
        lines.append(f"  {src} -> {dst}  ({w.path}:{w.lineno} in {w.qualname})")
    cycles = graph.cycles()
    lines.append("cycles: " + ("none" if not cycles else str(len(cycles))))
    for locks, witnesses in cycles:
        lines.append("  cycle: " + " <-> ".join(locks))
        for w in witnesses:
            lines.append(f"    {w.path}:{w.lineno} in {w.qualname}")
    return "\n".join(lines) + "\n"


def to_dot(graph: LockOrderGraph) -> str:
    """DOT export of the lock-order graph (deterministic)."""
    cycle_nodes: set[str] = set()
    for locks, _ in graph.cycles():
        cycle_nodes.update(locks)
    lines = ["digraph lockorder {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for node in graph.nodes:
        attrs = ' color=red style=filled fillcolor="#ffdddd"' if node in cycle_nodes else ""
        lines.append(f'  "{node}" [{attrs.strip()}];' if attrs else f'  "{node}";')
    for (src, dst) in sorted(graph.edges):
        w = graph.edges[(src, dst)]
        color = " [color=red]" if src in cycle_nodes and dst in cycle_nodes else ""
        lines.append(f'  "{src}" -> "{dst}"{color};  // {w.path}:{w.lineno}')
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "GUARD_RATIO",
    "ClassAnalysis",
    "ConcurrencyIndex",
    "GuardInfo",
    "LockOrderGraph",
    "Witness",
    "render_guard_tables",
    "render_lock_order",
    "to_dot",
]
