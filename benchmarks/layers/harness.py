"""Timing, statistics and tracing shared by the layered benchmark.

Nothing here imports ``repro``: the tracer records spans around calls
into the layers' public functions by wrapping them from outside, on the
instance that owns them, and puts the originals back when a traced
slice ends.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

clock = time.perf_counter


def sleep_until(deadline: float) -> None:
    """Sleep until the ``clock()`` reading *deadline*.

    For generators that share the interpreter with a worker thread: a
    busy-wait would hold the interpreter lock the worker needs.
    """
    remaining = deadline - clock()
    if remaining > 0.0:
        time.sleep(remaining)


def spin_until(deadline: float) -> None:
    """Busy-wait until the ``clock()`` reading *deadline*.

    For single-threaded open loops: sleeping lets the host idle the CPU
    between ticks, and how long it takes to wake up again varies from
    run to run far more than the code under test does.
    """
    while clock() < deadline:
        pass


#: The probe's time on the reference host (a two-core Xeon VM, Python
#: 3.11, NumPy 2.4) when nothing else slows it: the 5th percentile of
#: 1,000 readings taken between busy-waits on one core, in three
#: processes.
PROBE_REFERENCE_S = 0.71e-3
#: Probes per reading; a reading is the fastest, since a probe that a
#: garbage collection or another thread interrupts only reads slower.
PROBE_REPEATS = 5
_PROBE_LOOP = 3000
_PROBE_ROWS = np.linspace(0.0, 1.0, 128 * 33).reshape(128, 33)
_PROBE_WEIGHTS = np.linspace(-1.0, 1.0, 33 * 2).reshape(33, 2)


def _probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work.

    The mix resembles the program's (a Python loop, centring, a small
    projection, pairwise distances, a partial sort), but it is the
    benchmark's own code, so no change to the program moves it.
    """
    start = clock()
    total = 0
    for i in range(_PROBE_LOOP):
        total += i * i
    scores = (_PROBE_ROWS - _PROBE_ROWS.mean(axis=0)) @ _PROBE_WEIGHTS
    distances = ((scores[:, None, :] - scores[None, :, :]) ** 2).sum(axis=2)
    np.argpartition(distances, 3, axis=1)
    return clock() - start


def _reading() -> float:
    return min(_probe() for _ in range(PROBE_REPEATS)) / PROBE_REFERENCE_S


def host_slowdown() -> float:
    """How much slower than the reference host this process's cores run right now.

    The shared host slows all code on a core by about 1.5x, for seconds
    to over a minute at a time, so a whole run can land in a slow
    period.  Time spent computing is divided by this factor, read next
    to it, which puts it at the reference host's speed; time spent
    waiting is not.  With more than one core allowed, the calling
    thread reads each in turn and the mean is returned.
    """
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cores) < 2:
        return _reading()
    readings = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            readings.append(_reading())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(readings) / len(readings)


def fast_half(seconds: list[float]) -> list[int]:
    """Indices of the faster (smaller) half of comparable timing samples.

    The host alternates between fast and slow periods that last
    seconds; a code change moves the fast samples as much as the slow
    ones, so the faster half is the steadier estimate.
    """
    order = sorted(range(len(seconds)), key=seconds.__getitem__)
    return order[: (len(order) + 1) // 2]


def fast_rate(items_per_sample: int, seconds: list[float]) -> float:
    """Items per second over the faster half of equal-sized samples."""
    keep = fast_half(seconds)
    return items_per_sample * len(keep) / sum(seconds[i] for i in keep)


def fast_percentile_ms(slices: list[np.ndarray], q: float) -> float:
    """The *q*-th percentile, in ms, of a typical slice from the faster half.

    Each slice (latency samples in seconds, one per slice of the run)
    gets its own *q*-th percentile; the result is the median of the
    faster half of those.  Pooling the faster half's samples instead
    lets the tail of one half-slow slice set a high percentile.
    """
    per_slice = [float(np.percentile(s, q)) for s in slices]
    return float(np.median([per_slice[i] for i in fast_half(per_slice)])) * 1e3


@dataclass
class Measurement:
    """Metrics of one run plus its operation accounting.

    ``slowdowns`` holds the ``host_slowdown`` readings taken between
    the run's timed chunks, and ``chunk_ends`` the ``clock()`` reading
    at the end of each chunk: chunk ``i`` lies between readings ``i``
    and ``i + 1``.
    """

    metrics: dict[str, float]
    attempted: int
    failed: int
    slowdowns: list[float] = field(default_factory=list)
    chunk_ends: list[float] = field(default_factory=list)

    def slowdown_at(self, t: float) -> float:
        """The slowdown that timings starting at ``clock()`` reading *t* are divided by."""
        if not self.chunk_ends:
            return 1.0
        i = min(bisect.bisect_left(self.chunk_ends, t), len(self.chunk_ends) - 1)
        return (self.slowdowns[i] + self.slowdowns[i + 1]) / 2.0


@dataclass(frozen=True)
class Span:
    """One timed call: *parent* is the id of the span open around it (0 for none)."""

    span_id: int
    parent: int
    name: str
    start: float
    end: float
    rows: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the program's layers.

    ``wrap`` replaces a bound function on its owner with a timing
    wrapper; ``span`` times a block of the benchmark's own code;
    ``record`` adds a span measured elsewhere (the batch kernel's stage
    split).  Parents come from a per-thread stack, so spans recorded on
    a service worker nest under that worker's own calls.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, *, parent: int, rows: int = 0) -> None:
        """Add a span measured elsewhere, under *parent*."""
        self.spans.append(Span(next(self._ids), parent, name, start, end, rows))

    @contextmanager
    def span(self, name: str, rows: int = 0):
        """Time the enclosed block as one span; yields its id."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, rows))

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span named *name*."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Put every patched function back, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def named(self, name: str) -> list[Span]:
        """All spans named *name*, in the order they finished."""
        return [span for span in self.spans if span.name == name]

    def totals(
        self, slowdown_at: Callable[[float], float], roots: Iterable[Span] | None = None
    ) -> dict[str, float]:
        """Seconds per span name, over the subtrees of *roots* (default: every span).

        Each span's time is divided by ``slowdown_at(span.start)``, the
        host slowdown of the chunk it ran in.
        """
        if roots is None:
            spans = self.spans
        else:
            children = defaultdict(list)
            for span in self.spans:
                children[span.parent].append(span)
            spans, pending = [], list(roots)
            while pending:
                span = pending.pop()
                spans.append(span)
                pending.extend(children[span.span_id])
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += span.seconds / slowdown_at(span.start)
        return totals


def write_spans(path: Path, tracers: dict[str, Tracer]) -> None:
    """Write every phase's spans as JSON lines (done once, when the run ends)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for phase, tracer in tracers.items():
            for span in sorted(tracer.spans, key=lambda s: s.start):
                record = {
                    "phase": phase,
                    "id": span.span_id,
                    "parent": span.parent,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "rows": span.rows,
                }
                out.write(json.dumps(record) + "\n")
