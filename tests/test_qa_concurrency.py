"""Tests for the concurrency analysis: the four index rules, the
lock-guard inference, the lock-order graph, and the ``concurrency``
CLI verb.

Rule fixtures follow the test_qa_rules convention — one firing snippet,
one clean snippet, and (where it matters) one silenced by a
``# qa: ignore[...]`` pragma — run through :meth:`Analyzer.run_source`
so the index rules see a single-module project.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.qa import (
    Analyzer,
    Baseline,
    ConcurrencyIndex,
    ProjectIndex,
    SourceModule,
    build_module_symbols,
    get_rule,
)
from repro.qa.cli import main as qa_main
from repro.qa.lockgraph import render_guard_tables, render_lock_order, to_dot

REPO = Path(__file__).resolve().parent.parent

CONCURRENCY_RULES = (
    "unguarded-shared-state",
    "lock-order-inversion",
    "blocking-under-lock",
    "thread-lifecycle",
)


def findings(source: str, rule: str):
    """Lint a snippet as a one-module project; keep one rule's findings."""
    out = Analyzer().run_source(textwrap.dedent(source), name="repro.serve.mod")
    return [f for f in out if f.rule_id == rule]


def build_conc(sources: dict[str, str]) -> ConcurrencyIndex:
    """The ConcurrencyIndex of a synthetic multi-module project."""
    facts = [
        build_module_symbols(
            SourceModule.from_source(textwrap.dedent(src), relpath=f"<{name}>", name=name)
        )
        for name, src in sources.items()
    ]
    return ConcurrencyIndex.of(ProjectIndex.build(facts))


# ----------------------------------------------------------------------
# unguarded-shared-state
# ----------------------------------------------------------------------


GUARDED_BOX = """\
    import threading


    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def add(self, x):
            with self._lock:
                self._items.append(x)

        def flush(self):
            with self._lock:
                self._items = []

        def peek(self):
            return self._items
    """


def test_unguarded_read_fires():
    found = findings(GUARDED_BOX, "unguarded-shared-state")
    assert len(found) == 1
    assert "self._items" in found[0].message
    assert "read lock-free" in found[0].message
    assert "Box.peek()" in found[0].message


def test_unguarded_write_fires():
    # Four guarded writes and one lock-free one: 4/5 = 80% meets the
    # guard-ratio threshold, and the lock-free write is the violation.
    src = """\
        import threading


        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, x):
                with self._lock:
                    self._items.append(x)

            def extend(self, xs):
                with self._lock:
                    self._items.extend(xs)

            def flush(self):
                with self._lock:
                    self._items = []

            def rebuild(self):
                with self._lock:
                    self._items = list(self._items)

            def reset(self):
                self._items = None
        """
    found = findings(src, "unguarded-shared-state")
    assert len(found) == 1
    assert "written lock-free" in found[0].message
    assert "4/5 writes" in found[0].message


def test_all_guarded_is_clean():
    src = GUARDED_BOX.replace(
        "return self._items",
        "with self._lock:\n                return self._items",
    )
    assert findings(src, "unguarded-shared-state") == []


def test_below_guard_ratio_is_clean():
    # One guarded write out of two (50% < 80%): no guard is inferred,
    # so the lock-free read cannot be a violation.
    src = GUARDED_BOX.replace(
        "with self._lock:\n                self._items = []",
        "self._items = []",
    )
    assert "with" not in src.split("def flush")[1].split("def peek")[0]
    assert findings(src, "unguarded-shared-state") == []


def test_pragma_silences_unguarded_read():
    src = GUARDED_BOX
    src = src.replace(
        "return self._items",
        "return self._items  # qa: ignore[unguarded-shared-state]",
    )
    assert findings(src, "unguarded-shared-state") == []


def test_sync_primitive_attributes_are_exempt():
    # Events/queues are internally synchronized: lock-free .set() or
    # .put() on them is fine and must not be inferred as a violation.
    src = """\
        import threading


        class Flag:
            def __init__(self):
                self._lock = threading.Lock()
                self._stop = threading.Event()

            def arm(self):
                with self._lock:
                    self._stop.clear()

            def trip(self):
                with self._lock:
                    self._stop.set()

            def tripped(self):
                return self._stop.is_set()
        """
    assert findings(src, "unguarded-shared-state") == []


def test_private_helper_inherits_callers_lock():
    # _evict is only ever called with the lock held, so its lock-free
    # body counts as guarded (inherited-held interprocedural analysis).
    src = """\
        import threading


        class Bounded:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, x):
                with self._lock:
                    self._items.append(x)
                    self._evict()

            def clear(self):
                with self._lock:
                    self._items = []
                    self._evict()

            def _evict(self):
                while len(self._items) > 8:
                    self._items.pop()
        """
    assert findings(src, "unguarded-shared-state") == []


def test_accesses_in_init_are_not_violations():
    # __init__ runs before the object is shared; its lock-free writes
    # neither count toward the guard ratio nor fire the rule.
    src = GUARDED_BOX.replace(
        "self._items = []\n",
        "self._items = []\n            self._items.append(0)\n",
        1,
    )
    found = findings(src, "unguarded-shared-state")
    assert len(found) == 1  # still only the peek() read


# ----------------------------------------------------------------------
# lock-order-inversion
# ----------------------------------------------------------------------


def test_direct_inversion_fires():
    src = """\
        import threading

        _a = threading.Lock()
        _b = threading.Lock()


        def fwd():
            with _a:
                with _b:
                    pass


        def rev():
            with _b:
                with _a:
                    pass
        """
    found = findings(src, "lock-order-inversion")
    assert len(found) == 1
    assert "conflicting orders" in found[0].message


def test_interprocedural_inversion_fires():
    src = """\
        import threading


        class AB:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def _take_b(self):
                with self._b:
                    pass

            def fwd(self):
                with self._a:
                    self._take_b()

            def rev(self):
                with self._b:
                    with self._a:
                        pass
        """
    found = findings(src, "lock-order-inversion")
    assert len(found) == 1


def test_consistent_order_is_clean():
    src = """\
        import threading

        _a = threading.Lock()
        _b = threading.Lock()


        def one():
            with _a:
                with _b:
                    pass


        def two():
            with _a:
                with _b:
                    pass
        """
    assert findings(src, "lock-order-inversion") == []


# ----------------------------------------------------------------------
# blocking-under-lock
# ----------------------------------------------------------------------


def test_queue_put_under_lock_fires():
    src = """\
        import queue
        import threading


        class Pipe:
            def __init__(self):
                self._lock = threading.Lock()
                self._q = queue.Queue(maxsize=4)

            def push(self, x):
                with self._lock:
                    self._q.put(x)
        """
    found = findings(src, "blocking-under-lock")
    assert len(found) == 1
    assert "may block while holding" in found[0].message


def test_nonblocking_put_is_clean():
    src = """\
        import queue
        import threading


        class Pipe:
            def __init__(self):
                self._lock = threading.Lock()
                self._q = queue.Queue(maxsize=4)

            def push(self, x):
                with self._lock:
                    self._q.put(x, block=False)

            def drain(self):
                return self._q.get()
        """
    assert findings(src, "blocking-under-lock") == []


def test_sleep_under_lock_fires():
    src = """\
        import threading
        import time

        _lock = threading.Lock()


        def nap():
            with _lock:
                time.sleep(0.1)
        """
    found = findings(src, "blocking-under-lock")
    assert len(found) == 1


def test_callback_under_lock_fires():
    src = """\
        import threading


        class Cached:
            def __init__(self, loader):
                self._lock = threading.Lock()
                self._loader = loader
                self._value = None

            def get(self):
                with self._lock:
                    if self._value is None:
                        self._value = self._loader()
                    return self._value
        """
    found = findings(src, "blocking-under-lock")
    assert len(found) == 1
    assert "self._loader" in found[0].message


def test_interprocedural_blocking_fires():
    src = """\
        import queue
        import threading


        class Pipe:
            def __init__(self):
                self._lock = threading.Lock()
                self._q = queue.Queue()

            def pull(self):
                return self._q.get()

            def pump(self):
                with self._lock:
                    return self.pull()
        """
    found = findings(src, "blocking-under-lock")
    assert len(found) == 1
    assert "call to" in found[0].message and "pull" in found[0].message


def test_private_callee_reports_at_blocking_site():
    # A private helper only ever called with the lock held *inherits*
    # that lock, so the finding lands on the blocking op itself.
    src = """\
        import queue
        import threading


        class Pipe:
            def __init__(self):
                self._lock = threading.Lock()
                self._q = queue.Queue()

            def _pull(self):
                return self._q.get()

            def pump(self):
                with self._lock:
                    return self._pull()
        """
    found = findings(src, "blocking-under-lock")
    assert len(found) == 1
    assert "in _pull()" in found[0].message


CONDITION_BOX = """\
    import threading


    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._other = threading.Lock()
            self._ready = threading.Condition(self._lock)
            self._items = []

        def put(self, x):
            with self._ready:
                self._items.append(x)
                self._ready.notify()

        def take(self):
            with self._lock:
                while not self._items:
                    self._ready.wait()
                return self._items.pop()

        def take_when(self):
            with self._ready:
                self._ready.wait_for(lambda: self._items, 1.0)
                return self._items.pop()

        def take_helped(self):
            with self._lock:
                self._wait_nonempty()
                return self._items.pop()

        def _wait_nonempty(self):
            while not self._items:
                self._ready.wait()
    """


def test_condition_wait_on_its_own_lock_is_clean():
    # wait/wait_for release the condition's lock, whether it is held as
    # the condition, as the lock it wraps, or inherited from the caller.
    assert findings(CONDITION_BOX, "blocking-under-lock") == []


def test_condition_wait_with_another_lock_held_fires():
    src = CONDITION_BOX + """\

        def take_nested(self):
            with self._other:
                with self._lock:
                    self._ready.wait()
    """
    (found,) = findings(src, "blocking-under-lock")
    assert "self._ready.wait may block while holding self._other in" in found.message


def test_condition_guards_like_the_lock_it_wraps():
    # Writes under `with self._ready:` and `with self._lock:` share one
    # guard, so only the lock-free read is reported.
    src = CONDITION_BOX + """\

        def clear(self):
            with self._lock:
                self._items = []

        def peek(self):
            return self._items
    """
    (found,) = findings(src, "unguarded-shared-state")
    assert "self._items is written under self._lock on 5/5 writes" in found.message
    assert "Box.peek()" in found.message


def test_condition_and_its_lock_are_one_node_of_the_lock_order():
    src = CONDITION_BOX + """\

        def fwd(self):
            with self._ready:
                with self._other:
                    pass

        def rev(self):
            with self._other:
                with self._lock:
                    pass
    """
    (found,) = findings(src, "lock-order-inversion")
    assert "repro.serve.mod.Box._lock, repro.serve.mod.Box._other" in found.message


def test_join_outside_lock_is_clean():
    src = """\
        import threading


        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self._thread = threading.Thread(target=self._run, daemon=True)

            def _run(self):
                pass

            def stop(self):
                with self._lock:
                    thread = self._thread
                thread.join()
        """
    assert findings(src, "blocking-under-lock") == []


# ----------------------------------------------------------------------
# thread-lifecycle
# ----------------------------------------------------------------------


def test_non_daemon_thread_without_join_fires():
    src = """\
        import threading


        class Runner:
            def launch(self):
                self._t = threading.Thread(target=self._run)
                self._t.start()

            def _run(self):
                pass
        """
    found = findings(src, "thread-lifecycle")
    assert any("no reachable join()" in f.message for f in found)


def test_daemon_thread_without_join_is_clean():
    src = """\
        import threading


        class Runner:
            def launch(self):
                t = threading.Thread(target=self._run, daemon=True)
                t.start()

            def _run(self):
                pass
        """
    assert findings(src, "thread-lifecycle") == []


def test_joined_thread_is_clean():
    src = """\
        import threading


        class Runner:
            def __init__(self):
                self._lock = threading.Lock()
                self._t = None

            def launch(self):
                with self._lock:
                    self._t = threading.Thread(target=self._run)
                    self._t.start()

            def _run(self):
                pass

            def stop(self):
                self._t.join()
        """
    assert findings(src, "thread-lifecycle") == []


def test_unsynchronized_double_start_fires():
    src = """\
        import threading


        class Runner:
            def launch(self):
                self._t = threading.Thread(target=self._run, daemon=True)
                self._t.start()

            def _run(self):
                pass
        """
    found = findings(src, "thread-lifecycle")
    assert any("unsynchronized start" in f.message for f in found)


def test_start_under_lock_is_clean():
    src = """\
        import threading


        class Runner:
            def __init__(self):
                self._lock = threading.Lock()

            def launch(self):
                with self._lock:
                    self._t = threading.Thread(target=self._run, daemon=True)
                    self._t.start()

            def _run(self):
                pass
        """
    assert findings(src, "thread-lifecycle") == []


def test_start_in_init_before_last_assign_fires():
    src = """\
        import threading


        class Runner:
            def __init__(self):
                self._t = threading.Thread(target=self._run, daemon=True)
                self._t.start()
                self._ready = True

            def _run(self):
                pass
        """
    found = findings(src, "thread-lifecycle")
    assert any("before the instance is fully constructed" in f.message for f in found)


def test_start_last_in_init_is_clean():
    src = """\
        import threading


        class Runner:
            def __init__(self):
                self._ready = True
                self._t = threading.Thread(target=self._run, daemon=True)
                self._t.start()

            def _run(self):
                pass
        """
    assert findings(src, "thread-lifecycle") == []


# ----------------------------------------------------------------------
# guard tables, lock-order rendering, DOT export
# ----------------------------------------------------------------------


INVERSION_PROJECT = {
    "app.locks": """\
        import threading


        class AB:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self._n = 0

            def fwd(self):
                with self._a:
                    with self._b:
                        self._n += 1

            def rev(self):
                with self._b:
                    with self._a:
                        self._n -= 1
        """,
}


def test_guard_tables_render_inferred_guards():
    conc = build_conc(INVERSION_PROJECT)
    text = render_guard_tables(conc)
    assert "app.locks.AB" in text
    assert "self._n" in text
    assert "2/2 writes" in text


def test_lock_order_render_reports_cycle():
    conc = build_conc(INVERSION_PROJECT)
    text = render_lock_order(conc)
    assert "app.locks.AB._a" in text and "app.locks.AB._b" in text
    assert "cycle" in text


def test_dot_export_is_deterministic():
    first = to_dot(build_conc(INVERSION_PROJECT).lock_order)
    second = to_dot(build_conc(dict(INVERSION_PROJECT)).lock_order)
    assert first == second
    assert first.startswith("digraph lockorder {")
    assert "app.locks.AB._a" in first


def test_cli_concurrency_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(INVERSION_PROJECT["app.locks"]))
    dot = tmp_path / "lockorder.dot"
    code = qa_main(["concurrency", str(target), "--no-cache", "--dot", str(dot)])
    out = capsys.readouterr().out
    assert code == 0
    assert "AB" in out and "lock-order graph" in out
    assert dot.read_text().startswith("digraph lockorder {")


# ----------------------------------------------------------------------
# live-tree integration
# ----------------------------------------------------------------------


def test_live_tree_is_clean_under_concurrency_rules():
    """src/ carries zero concurrency findings outside the baseline.

    The guard tables must still cover the threaded serve/obs classes —
    an empty analysis would also be "clean", so assert the inference
    actually sees them.
    """
    rules = [get_rule(rule_id) for rule_id in CONCURRENCY_RULES]
    analyzer = Analyzer(rules, baseline=Baseline.load(REPO / "qa-baseline.txt"))
    report = analyzer.run([REPO / "src"])
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"concurrency findings in src/:\n{rendered}"

    index = analyzer.build_index([REPO / "src"])
    tables = render_guard_tables(ConcurrencyIndex.of(index))
    for cls in (
        "ClassificationService",
        "ModelCache",
        "MetricsRecorder",
        "MetricsRegistry",
    ):
        assert cls in tables
