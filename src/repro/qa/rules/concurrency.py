"""The four concurrency rules over the inferred lock model.

All four are :class:`~repro.qa.registry.IndexRule` families computed
from one shared :class:`~repro.qa.lockgraph.ConcurrencyIndex` (built
once per project index, memoized), so a strict run pays the inference
cost once regardless of how many of these rules are enabled:

* ``unguarded-shared-state`` — an attribute whose writes are almost
  always lock-guarded is accessed lock-free on a path reachable from a
  thread entry point;
* ``lock-order-inversion`` — the global lock-acquisition graph has a
  cycle (two threads taking the same locks in opposite orders can
  deadlock);
* ``blocking-under-lock`` — a queue/event/thread/socket wait, file
  I/O, ``time.sleep``, or an opaque user callback runs while a lock is
  held, directly or one call level down;
* ``thread-lifecycle`` — non-daemon threads that are never joined,
  threads started from ``__init__`` before construction finishes, and
  unsynchronized start of an attribute-stored thread (double-start).

All four are warnings: they are heuristic by design (see the
"Concurrency analysis" chapter of ``docs/STATIC_ANALYSIS.md`` for the
inference model and its limitations), and strict mode — the CI gate —
still holds the tree to zero.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import ProjectIndex
from ..findings import Finding, Severity
from ..lockgraph import ClassAnalysis, ConcurrencyIndex, _short_lock
from ..registry import IndexRule, register


def _held_display(analysis_or_none: ClassAnalysis | None, locks: Iterable[str]) -> str:
    cls = analysis_or_none.cls if analysis_or_none is not None else None
    return ", ".join(sorted(_short_lock(lock, cls) for lock in locks))


@register
class UnguardedSharedStateRule(IndexRule):
    id = "unguarded-shared-state"
    severity = Severity.WARNING
    description = (
        "attributes written under a lock on >=80% of writes must not be "
        "accessed lock-free on paths reachable from a thread entry point"
    )

    def check_index(self, index: ProjectIndex) -> Iterable[Finding]:
        conc = ConcurrencyIndex.of(index)
        for analysis in conc.class_analyses:
            for attr in sorted(analysis.guards):
                info = analysis.guards[attr]
                guard = _short_lock(info.guard, analysis.cls)
                for method, access in info.violations:
                    verb = "written" if access.mode == "write" else "read"
                    yield self.finding_at(
                        analysis.relpath,
                        access.lineno,
                        f"self.{attr} is written under {guard} on "
                        f"{info.guarded_writes}/{info.total_writes} writes but "
                        f"{verb} lock-free here in {analysis.cls.name}.{method}() "
                        f"(reachable from a public or thread entry point)",
                        col=access.col,
                        source_line=access.line_text,
                    )


@register
class LockOrderInversionRule(IndexRule):
    id = "lock-order-inversion"
    severity = Severity.WARNING
    description = (
        "the global lock-acquisition graph must be acyclic (a cycle means "
        "two threads can take the same locks in opposite orders and deadlock)"
    )

    def check_index(self, index: ProjectIndex) -> Iterable[Finding]:
        conc = ConcurrencyIndex.of(index)
        for locks, witnesses in conc.lock_order.cycles():
            if not witnesses:
                continue
            anchor = witnesses[0]
            sites = "; ".join(
                f"{w.path}:{w.lineno} in {w.qualname}" for w in witnesses[:4]
            )
            yield self.finding_at(
                anchor.path,
                anchor.lineno,
                f"lock-order inversion between {', '.join(locks)}: "
                f"acquired in conflicting orders ({sites})",
                source_line=anchor.line_text,
            )


@register
class BlockingUnderLockRule(IndexRule):
    id = "blocking-under-lock"
    severity = Severity.WARNING
    description = (
        "queue/event/thread/socket waits, file I/O, sleeps, and user "
        "callbacks must not run while a lock is held"
    )

    def check_index(self, index: ProjectIndex) -> Iterable[Finding]:
        conc = ConcurrencyIndex.of(index)
        analysis_of_cls = {a.cls.name: a for a in conc.class_analyses}
        for qualname in sorted(conc.functions):
            fn = conc.functions[qualname]
            relpath = conc.relpath_of[qualname]
            extra = conc.extra_held.get(qualname, frozenset())
            analysis = analysis_of_cls.get(fn.cls) if fn.cls else None
            # Direct: a blocking op with a lock held at the op itself.
            for op in fn.blocking:
                held = op.held_with(extra)
                if not held:
                    continue
                yield self.finding_at(
                    relpath,
                    op.lineno,
                    f"{op.detail} may block while holding "
                    f"{_held_display(analysis, held)} in {fn.name}()",
                    col=op.col,
                    source_line=op.line_text,
                )
            # One level interprocedural: a call made with a lock held to
            # a function whose own (lock-free) body blocks.
            for call in fn.calls:
                held = frozenset(call.held) | extra
                if not held:
                    continue
                target = conc.resolve_call(fn, call.callee, call.self_method)
                if target is None:
                    continue
                kinds = conc.blocking_unheld(target, held)
                if not kinds:
                    continue
                yield self.finding_at(
                    relpath,
                    call.lineno,
                    f"call to {target}() may block ({', '.join(kinds)}) while "
                    f"holding {_held_display(analysis, held)} in {fn.name}()",
                    col=call.col,
                    source_line=call.line_text,
                )


@register
class ThreadLifecycleRule(IndexRule):
    id = "thread-lifecycle"
    severity = Severity.WARNING
    description = (
        "threads must be daemons or joined, not started before __init__ "
        "finishes, and attribute-stored threads must start under a lock"
    )

    def check_index(self, index: ProjectIndex) -> Iterable[Finding]:
        conc = ConcurrencyIndex.of(index)
        # Joins are matched by storage: "self._t" joins cover creates
        # stored in self._t anywhere in the class; local-name joins
        # cover creates stored in the same function's local.
        class_joins: dict[str, set[str]] = {}
        for qualname, fn in conc.functions.items():
            if fn.cls is None:
                continue
            cls_qual = qualname.rsplit(".", 1)[0]
            for op in fn.thread_ops:
                if op.kind == "join" and op.storage:
                    class_joins.setdefault(cls_qual, set()).add(op.storage)
        for qualname in sorted(conc.functions):
            fn = conc.functions[qualname]
            relpath = conc.relpath_of[qualname]
            extra = conc.extra_held.get(qualname, frozenset())
            cls_qual = qualname.rsplit(".", 1)[0] if fn.cls else None
            local_joins = {
                op.storage for op in fn.thread_ops if op.kind == "join" and op.storage
            }
            for op in fn.thread_ops:
                if op.kind == "create" and op.daemon is not True:
                    if op.storage and op.storage.startswith("self."):
                        joined = cls_qual is not None and op.storage in class_joins.get(
                            cls_qual, set()
                        )
                    else:
                        joined = op.storage in local_joins if op.storage else False
                    if not joined:
                        where = (
                            f"stored in {op.storage}" if op.storage else "never stored"
                        )
                        yield self.finding_at(
                            relpath,
                            op.lineno,
                            f"non-daemon thread created in {fn.name}() ({where}) "
                            "has no reachable join(); pass daemon=True or join it",
                            col=op.col,
                            source_line=op.line_text,
                        )
                if (
                    op.kind == "start"
                    and fn.name != "__init__"
                    and op.storage
                    and op.storage.startswith("self.")
                    and not (frozenset(op.held) | extra)
                ):
                    yield self.finding_at(
                        relpath,
                        op.lineno,
                        f"unsynchronized start of thread stored in {op.storage}: "
                        f"two concurrent {fn.name}() calls can both start it "
                        "(guard the check-and-start with a lock)",
                        col=op.col,
                        source_line=op.line_text,
                    )
            if fn.name == "__init__" and fn.last_self_assign_line:
                last = fn.last_self_assign_line
                starters = {
                    f2.name
                    for f2 in conc.functions.values()
                    if f2.cls == fn.cls
                    and f2.qualname.rsplit(".", 2)[0] == qualname.rsplit(".", 2)[0]
                    and any(op.kind == "start" for op in f2.thread_ops)
                }
                for op in fn.thread_ops:
                    if op.kind == "start" and op.lineno < last:
                        yield self.finding_at(
                            relpath,
                            op.lineno,
                            f"thread started in __init__ before the instance is "
                            f"fully constructed (attributes are still assigned "
                            f"at line {last})",
                            col=op.col,
                            source_line=op.line_text,
                        )
                for call in fn.calls:
                    if (
                        call.self_method in starters
                        and call.lineno < last
                    ):
                        yield self.finding_at(
                            relpath,
                            call.lineno,
                            f"self.{call.self_method}() starts a thread in "
                            f"__init__ before the instance is fully constructed "
                            f"(attributes are still assigned at line {last})",
                            col=call.col,
                            source_line=call.line_text,
                        )
