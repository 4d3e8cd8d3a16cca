"""Process-local metrics registry: counters, gauges, latency histograms.

The registry is the collection half of the :mod:`repro.obs` subsystem
(the paper's monitoring-first philosophy turned on the pipeline itself:
every stage of the resource-management loop must expose its latency,
throughput, and error behaviour).  Three instrument kinds cover those
needs:

* :class:`Counter` — monotone event counts (announcements ingested,
  snapshots classified, simulation ticks);
* :class:`Gauge` — instantaneous values (active workload instances);
* :class:`Histogram` — fixed-bucket latency distributions (stage and
  span durations), exportable in the Prometheus cumulative-bucket form.

All updates are thread-safe (one lock per instrument, one registry lock
for resolving specs).  Time never enters the registry implicitly: spans
read an injectable ``Clock`` (see :mod:`repro.obs.spans`), so traces
collected under a fake clock are bit-reproducible.

A :class:`NullRegistry` implements the same surface as no-ops; it is the
default registry of the :mod:`repro.obs` facade, which makes every
instrumentation call site effectively free until collection is switched
on.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator

from .context import NULL_TRACE, TailSampler, TraceContext, sampler_from_env
from .events import DEFAULT_EVENT_CAPACITY, EventRecord
from .spans import SpanRecord, null_span
from .spec import DEFAULT_LATENCY_BUCKETS_S, InstrumentSpec, LabelledSpecs, LabelSet

#: A clock is any zero-argument callable returning seconds as a float —
#: the same injectable-clock contract as ``repro.core.pipeline.Clock``.
Clock = Callable[[], float]

#: Production clock, held as a reference (the injected-clock pattern):
#: spans call whatever clock the registry or the caller supplies.
DEFAULT_CLOCK: Clock = time.perf_counter

#: Name of the histogram every finished span observes its duration into
#: (labelled with ``span=<span name>``).
SPAN_HISTOGRAM_NAME = "span.seconds"

#: Finished spans retained for trace dumps (bounded ring buffer).
DEFAULT_TRACE_CAPACITY = 4096

#: In-flight traces whose spans may sit in the pending buffer while a
#: tail sampler awaits their completion; the oldest trace is evicted
#: (spans discarded, ``obs.traces.evicted`` incremented) beyond this.
MAX_PENDING_TRACES = 512

#: The registry's own instruments.  Span and event counts take one spec
#: per span or event name.
_SPAN_SECONDS = LabelledSpecs(
    InstrumentSpec.histogram(SPAN_HISTOGRAM_NAME, "Duration of tracing spans."), "span"
)
_EVENTS = LabelledSpecs(InstrumentSpec.counter("obs.events", "Structured events recorded."), "event")
_TRACES_KEPT = LabelledSpecs(
    InstrumentSpec.counter("obs.traces.kept", "Traces kept by the tail sampler."), "reason"
)
_TRACES_DROPPED = InstrumentSpec.counter("obs.traces.dropped", "Traces dropped by the tail sampler.")
_TRACES_EVICTED = InstrumentSpec.counter(
    "obs.traces.evicted", "In-flight traces evicted from the pending buffer."
)

#: Environment fallbacks for the ring capacities: consulted when
#: :class:`MetricsRegistry` (or ``obs.enable``) is not given an explicit
#: capacity, so a deployment can size the buffers without code changes.
TRACE_CAPACITY_ENV = "REPRO_OBS_TRACE_CAPACITY"
EVENT_CAPACITY_ENV = "REPRO_OBS_EVENT_CAPACITY"


def _capacity_from_env(var: str, default: int) -> int:
    """Resolve a ring capacity from the environment, ignoring junk values."""
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 1 else default

def histogram_quantile(
    bounds: tuple[float, ...], cumulative: tuple[int, ...], q: float
) -> float:
    """Estimate the *q*-quantile from cumulative bucket counts.

    The Prometheus ``histogram_quantile`` estimator: locate the bucket
    holding the ``q * count``-th observation and interpolate linearly
    between its bounds (the lower edge of the first bucket is 0.0, the
    fixed-bucket histograms here being latency distributions).

    ``cumulative`` has one entry per finite bound plus the trailing
    +Inf entry, exactly the shape :meth:`Histogram.snapshot` returns.
    Returns ``nan`` for an empty histogram; when the quantile falls in
    the +Inf bucket the highest finite bound is returned (the estimate
    cannot exceed the instrumented range).

    Raises
    ------
    ValueError
        If *q* is outside ``[0, 1]`` or the shapes disagree.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(cumulative) != len(bounds) + 1:
        raise ValueError(
            f"cumulative counts ({len(cumulative)}) must be one longer "
            f"than bounds ({len(bounds)})"
        )
    total = cumulative[-1]
    if total <= 0:
        return math.nan
    rank = q * total
    prev_cum = 0
    for i, cum in enumerate(cumulative):
        if cum >= rank and cum > prev_cum:
            if i >= len(bounds):
                # +Inf bucket: clamp to the largest finite bound.
                return bounds[-1]
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            fraction = max(rank - prev_cum, 0.0) / (cum - prev_cum)
            return lower + (upper - lower) * fraction
        prev_cum = cum
    return bounds[-1] if bounds else math.nan


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the count.

        Raises
        ------
        ValueError
            On a negative increment (counters only go up).
        """
        if amount < 0:
            raise ValueError("counters cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """Instantaneous value that can move in both directions."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract *amount* from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current gauge value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution of observed values (latencies).

    Buckets are upper bounds in increasing order; observations above the
    last bound land in the implicit +Inf bucket.  Internally counts are
    per-bucket; :meth:`snapshot` returns the Prometheus cumulative form.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "help", "buckets", "_lock", "_counts", "_sum", "_count", "_exemplars"
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ValueError("bucket bounds must be increasing")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        # Per-bucket (value, trace_id) exemplars; allocated on first
        # traced observation so untraced histograms pay nothing.
        self._exemplars: dict[int, tuple[float, int]] | None = None

    def observe(self, value: float, trace_id: int | None = None) -> None:
        """Record one observation, optionally tagged with a trace id.

        A non-zero *trace_id* becomes the bucket's exemplar: the most
        recent traced observation that landed there, linking the
        aggregate back to one concrete request trace.
        """
        i = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1
            if trace_id:
                if self._exemplars is None:
                    self._exemplars = {}
                self._exemplars[i] = (float(value), int(trace_id))

    def exemplars(self) -> list[dict[str, float | int | str]]:
        """Per-bucket exemplars as ``{"le", "value", "trace_id"}`` dicts.

        ``le`` is the bucket's upper bound (``"+Inf"`` for the overflow
        bucket) matching the Prometheus cumulative-``le`` exposition.
        """
        with self._lock:
            if not self._exemplars:
                return []
            items = sorted(self._exemplars.items())
        out: list[dict[str, float | int | str]] = []
        for i, (value, trace_id) in items:
            le = self.buckets[i] if i < len(self.buckets) else "+Inf"
            out.append({"le": le, "value": value, "trace_id": trace_id})
        return out

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def snapshot(self) -> tuple[tuple[float, ...], tuple[int, ...], float, int]:
        """Return ``(bounds, cumulative_counts, sum, count)`` atomically.

        ``cumulative_counts`` has one entry per bound plus the final
        +Inf entry (equal to ``count``), in the Prometheus ``le`` form.
        """
        with self._lock:
            cumulative = []
            running = 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return self.buckets, tuple(cumulative), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile of the observed distribution.

        Cumulative-bucket interpolation (see :func:`histogram_quantile`);
        ``nan`` while empty, clamped to the highest finite bound when
        the quantile lands in the +Inf bucket.
        """
        bounds, cumulative, _total, _count = self.snapshot()
        return histogram_quantile(bounds, cumulative, q)


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Live registry: resolve instrument specs, record spans and events, snapshot.

    Parameters
    ----------
    clock:
        Default span clock (see :data:`DEFAULT_CLOCK`); inject a fake
        for deterministic traces.
    trace_capacity:
        Finished spans retained in the ring buffer; ``None`` falls back
        to :data:`TRACE_CAPACITY_ENV` then :data:`DEFAULT_TRACE_CAPACITY`.
    event_capacity:
        Events retained in the ring buffer; ``None`` falls back to
        :data:`EVENT_CAPACITY_ENV` then
        :data:`~repro.obs.events.DEFAULT_EVENT_CAPACITY`.
    sampler:
        Tail-based trace sampling policy; ``None`` falls back to the
        :data:`~repro.obs.context.SAMPLER_RATE_ENV` environment knob
        (and to no sampling — every trace kept — when that is unset).
        While a sampler is installed, spans carrying a trace id are
        buffered until :meth:`finish_trace` decides keep/drop.
    """

    enabled = True

    def __init__(
        self,
        clock: Clock | None = None,
        trace_capacity: int | None = None,
        event_capacity: int | None = None,
        sampler: TailSampler | None = None,
    ) -> None:
        if trace_capacity is None:
            trace_capacity = _capacity_from_env(TRACE_CAPACITY_ENV, DEFAULT_TRACE_CAPACITY)
        if event_capacity is None:
            event_capacity = _capacity_from_env(EVENT_CAPACITY_ENV, DEFAULT_EVENT_CAPACITY)
        if trace_capacity < 1:
            raise ValueError("trace_capacity must be positive")
        if event_capacity < 1:
            raise ValueError("event capacity must be positive")
        self.clock: Clock = clock if clock is not None else DEFAULT_CLOCK
        self.trace_capacity = trace_capacity
        self.event_capacity = event_capacity
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelSet], Instrument] = {}
        # Spec → resolved handle (a tuple of handles for a family spec);
        # written under the lock together with _instruments and cleared
        # with it by reset(), so no handle outlives the instrument map.
        self._handles: dict[InstrumentSpec, Instrument | tuple[Instrument, ...]] = {}
        self._spans: deque[SpanRecord] = deque(maxlen=trace_capacity)
        self._events: deque[EventRecord] = deque(maxlen=event_capacity)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._span_stacks = threading.local()
        # Thread-id → that thread's open-span stack, maintained alongside
        # the thread-local view so the sampling profiler can attribute a
        # foreign thread's samples to its innermost open span.  Reads and
        # writes are GIL-atomic dict operations.
        self._thread_stacks: dict[int, list[tuple[str, int, int, int]]] = {}
        self.sampler: TailSampler | None = (
            sampler if sampler is not None else sampler_from_env()
        )
        # trace_id → spans held back while the tail sampler awaits the
        # trace's completion (insertion-ordered: oldest trace evicted
        # first when MAX_PENDING_TRACES in-flight traces pile up).
        self._pending: dict[int, list[SpanRecord]] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def get(self, spec: InstrumentSpec) -> Instrument | tuple[Instrument, ...]:
        """The handle of *spec*: its instrument, or a tuple of them for a family spec.

        The first ``get`` of a spec creates or finds its instruments;
        later ones are one dict lookup until :meth:`reset` drops every
        handle.

        Raises
        ------
        TypeError
            If the spec's name/labels pair is already registered as
            another kind.
        """
        # Deliberate double-checked locking: the lock-free read is a GIL-
        # atomic dict lookup, and a miss re-checks under the lock before
        # resolving, so the worst case is taking the slow path needlessly.
        try:
            return self._handles[spec]  # qa: ignore[unguarded-shared-state]
        except KeyError:
            pass
        with self._lock:
            handle = self._handles.get(spec)
            if handle is None:
                handles = tuple(
                    self._find_locked(spec.kind, spec.name, labels, spec.help, spec.buckets)
                    for labels in spec.label_sets()
                )
                handle = handles if spec.family is not None else handles[0]
                self._handles[spec] = handle
        return handle

    def _find_locked(
        self, kind: str, name: str, labels: LabelSet, help: str, buckets: tuple[float, ...]
    ) -> Instrument:
        instrument = self._instruments.get((name, labels))
        if instrument is None:
            if kind == "histogram":
                instrument = Histogram(name, labels, help, buckets)
            else:
                instrument = (Counter if kind == "counter" else Gauge)(name, labels, help)
            self._instruments[(name, labels)] = instrument
        elif instrument.kind != kind:
            raise TypeError(f"{name!r} is registered as a {instrument.kind}, not a {kind}")
        return instrument

    def instruments(self) -> list[Instrument]:
        """All registered instruments, sorted by (name, labels)."""
        with self._lock:
            items = list(self._instruments.items())
        return [instrument for _key, instrument in sorted(items, key=lambda kv: kv[0])]

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[str, int, int, int]]:
        # Stack entries are (name, span_id, trace_id, depth).
        stack = getattr(self._span_stacks, "stack", None)
        if stack is None:
            stack = []
            self._span_stacks.stack = stack
            self._thread_stacks[threading.get_ident()] = stack
        return stack

    def current_span_id(self) -> int | None:
        """Id of the span currently open on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def current_trace_id(self) -> int:
        """Trace id of the span open on this thread (0 when untraced)."""
        stack = self._stack()
        return stack[-1][2] if stack else 0

    def active_span_name(self, thread_id: int) -> str | None:
        """Innermost open span name on *thread_id*, if any.

        Lock-free: the per-thread stack list is only mutated by its own
        thread, and a stale read merely mis-attributes one profiler
        sample by one span transition.
        """
        stack = self._thread_stacks.get(thread_id)  # qa: ignore[unguarded-shared-state]
        if stack:
            return stack[-1][0]
        return None

    def span(
        self, name: str, clock: Clock | None = None, parent: TraceContext | None = None
    ) -> "_SpanContext":
        """Open a tracing span; use as a context manager.

        The span's duration is read from *clock* (default: the registry
        clock), recorded in the trace buffer, and observed into the
        ``span.seconds`` histogram labelled ``span=name``.  Pass a
        :class:`TraceContext` as *parent* to attach the span (and every
        span nested inside it) to a trace minted on another thread —
        the explicit cross-boundary hand-off that thread-local nesting
        cannot express.
        """
        return _SpanContext(self, name, clock if clock is not None else self.clock, parent)

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def next_trace_id(self) -> int:
        """Allocate a process-unique trace id (for array-typed carriers)."""
        return next(self._trace_ids)

    def allocate_span_id(self) -> int:
        """Allocate a span id for a synthesized (non-context) span."""
        return next(self._span_ids)

    def start_trace(self, name: str = "serve.request", mark: str | None = None) -> TraceContext:
        """Mint a request trace rooted at the span open on this thread.

        The context carries a freshly allocated trace id and root span
        id; the root *record* is only written at :meth:`finish_trace`.
        Pass *mark* to stamp the first boundary mark from the registry
        clock in the same call.
        """
        stack = self._stack()
        ctx = TraceContext(
            next(self._trace_ids),
            next(self._span_ids),
            name=name,
            parent_span_id=stack[-1][1] if stack else None,
        )
        if mark is not None:
            ctx.mark(mark, self.clock())
        return ctx

    def adopt_trace(
        self, name: str, trace_id: int, parent_span_id: int | None = None
    ) -> TraceContext:
        """Rebuild a context for a trace id carried through a buffer.

        The ingest plane stores bare trace ids in its NumPy rings; the
        consumer re-materializes a context (fresh root span id, same
        trace id) on the other side.  A zero id returns the falsy
        :data:`~repro.obs.context.NULL_TRACE`.
        """
        if not trace_id:
            return NULL_TRACE
        return TraceContext(
            int(trace_id), next(self._span_ids), name=name, parent_span_id=parent_span_id
        )

    def finish_trace(
        self,
        ctx: TraceContext,
        end_s: float,
        records: list[SpanRecord] | tuple[SpanRecord, ...] = (),
        error: bool = False,
    ) -> bool:
        """Complete a trace: sample it, then flush or drop its spans.

        Synthesizes the root span (first mark → *end_s*), appends the
        caller's extra *records* (attribution segments), and asks the
        installed :class:`TailSampler` — if any — whether the trace is
        worth keeping.  Kept traces flush their buffered spans into the
        ring; dropped ones vanish.  Returns ``True`` when kept.
        """
        if not ctx:
            return False
        start_s = ctx.started_s if ctx.marks else end_s
        duration_s = end_s - start_s
        with self._lock:
            pending = self._pending.pop(ctx.trace_id, None)
        sampler = self.sampler
        if sampler is None:
            keep, reason = True, "unsampled"
        else:
            keep, reason = sampler.decide(duration_s, error=error)
        if keep:
            for record in pending or ():
                self._commit_span(record)
            for record in records:
                self._commit_span(record)
            self._commit_span(
                SpanRecord(
                    ctx.name, None, 0, start_s, duration_s,
                    ctx.span_id, ctx.parent_span_id, ctx.trace_id,
                )
            )
            self.get(_TRACES_KEPT[reason]).inc()
        else:
            self.get(_TRACES_DROPPED).inc()
        return keep

    def emit_spans(self, spans: Iterable[tuple[str, float, float]]) -> None:
        """Record synthesized sibling spans under this thread's open span.

        No context manager, no clock reads: callers that already hold
        the boundary timestamps of one measurement pass (the pipeline's
        five stage timings) turn them into child spans at
        tuple-construction cost — one stack read and, when the family is
        buffered for a pending trace, one lock acquisition for all of
        them — which keeps per-stage trace spans affordable on the
        traced hot path.
        """
        stack = self._stack()
        if stack:
            top = stack[-1]
            parent, parent_id, trace_id, depth = top[0], top[1], top[2], top[3] + 1
        else:
            parent, parent_id, trace_id, depth = None, None, 0, 0
        span_ids = self._span_ids
        records = [
            SpanRecord(
                name, parent, depth, start_s, duration_s,
                next(span_ids), parent_id, trace_id,
            )
            for name, start_s, duration_s in spans
        ]
        if trace_id and self.sampler is not None:
            self._buffer_spans(trace_id, records)
            return
        for record in records:
            self._commit_span(record)

    def record_span(self, record: SpanRecord) -> None:
        """Append a finished span and observe its duration histogram.

        While a tail sampler is installed, spans belonging to a trace
        are buffered until :meth:`finish_trace` decides their fate.
        """
        if record.trace_id and self.sampler is not None:
            self._buffer_spans(record.trace_id, (record,))
            return
        self._commit_span(record)

    def _buffer_spans(self, trace_id: int, records: "Iterable[SpanRecord]") -> None:
        evicted = 0
        with self._lock:
            pending = self._pending.get(trace_id)
            if pending is None:
                while len(self._pending) >= MAX_PENDING_TRACES:
                    oldest = next(iter(self._pending))
                    del self._pending[oldest]
                    evicted += 1
                pending = self._pending[trace_id] = []
            pending.extend(records)
        if evicted:
            self.get(_TRACES_EVICTED).inc(evicted)

    def _commit_span(self, record: SpanRecord) -> None:
        # deque.append with maxlen is atomic under the GIL; no lock here.
        self._spans.append(record)
        self.get(_SPAN_SECONDS[record.name]).observe(
            record.duration_s, trace_id=record.trace_id or None
        )

    def spans(self) -> list[SpanRecord]:
        """Finished spans, oldest first (bounded by the trace capacity)."""
        with self._lock:
            return list(self._spans)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, name: str, **fields: str) -> None:
        """Record a structured event, correlated to the enclosing span.

        The timestamp comes from the registry clock (injectable, so
        event streams are deterministic under a fake clock), the span id
        from this thread's open-span stack.  Each event also increments
        the ``obs.events`` counter labelled ``event=name`` so monitor
        rules can alert on event *rates*.
        """
        record = EventRecord(
            self.clock(),
            name,
            self.current_span_id(),
            tuple(sorted((str(k), str(v)) for k, v in fields.items())),
        )
        # deque.append with maxlen is atomic under the GIL, as in _commit_span.
        self._events.append(record)
        self.get(_EVENTS[name]).inc()

    def events(self) -> list[EventRecord]:
        """Retained events, oldest first (bounded by the event capacity)."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def set_trace_capacity(self, capacity: int) -> None:
        """Resize the span ring, keeping the newest records.

        Raises
        ------
        ValueError
            If *capacity* is not positive.
        """
        if capacity < 1:
            raise ValueError("trace_capacity must be positive")
        with self._lock:
            self._spans = deque(self._spans, maxlen=capacity)
            self.trace_capacity = capacity

    def set_event_capacity(self, capacity: int) -> None:
        """Resize the event ring, keeping the newest records.

        Raises
        ------
        ValueError
            If *capacity* is not positive.
        """
        if capacity < 1:
            raise ValueError("event capacity must be positive")
        with self._lock:
            self._events = deque(self._events, maxlen=capacity)
            self.event_capacity = capacity

    def reset(self) -> None:
        """Drop every instrument, span, and event (keep clock and capacities).

        The span and event rings are cleared in place, so the capacities
        configured at construction (or via the ``set_*`` methods)
        survive a reset.
        """
        with self._lock:
            self._instruments.clear()
            self._handles.clear()
            self._spans.clear()
            self._events.clear()
            self._pending.clear()


class _SpanContext:
    """Context manager produced by :meth:`MetricsRegistry.span`."""

    __slots__ = (
        "_registry",
        "_name",
        "_clock",
        "_trace_parent",
        "_start",
        "_parent",
        "_depth",
        "_trace_id",
        "_stack",
        "_span_id",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        clock: Clock,
        trace_parent: TraceContext | None = None,
    ) -> None:
        self._registry = registry
        self._name = name
        self._clock = clock
        self._trace_parent = trace_parent

    def __enter__(self) -> "_SpanContext":
        # The thread-local stack lookup is cached for __exit__; a span
        # always exits on the thread that entered it (with-statement).
        stack = self._stack = self._registry._stack()
        trace_parent = self._trace_parent
        if trace_parent is not None and trace_parent:
            # Explicit cross-thread parent: attach under the trace root
            # minted on another thread, regardless of the local stack.
            self._parent = (trace_parent.name, trace_parent.span_id)
            self._depth = 1
            self._trace_id = trace_parent.trace_id
        elif stack:
            top = stack[-1]
            self._parent = (top[0], top[1])
            self._depth = top[3] + 1
            self._trace_id = top[2]
        else:
            self._parent = None
            self._depth = 0
            self._trace_id = 0
        self._span_id = next(self._registry._span_ids)
        stack.append((self._name, self._span_id, self._trace_id, self._depth))
        self._start = self._clock()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration = self._clock() - self._start
        stack = self._stack
        if stack and stack[-1][1] == self._span_id:
            stack.pop()
        parent = self._parent
        self._registry.record_span(
            SpanRecord(
                self._name,
                parent[0] if parent is not None else None,
                self._depth,
                self._start,
                duration,
                self._span_id,
                parent[1] if parent is not None else None,
                self._trace_id,
            )
        )
        return False


class _NullCounter:
    """No-op counter (shared singleton of :class:`NullRegistry`)."""

    __slots__ = ()
    kind = "counter"
    name = ""
    labels: LabelSet = ()
    help = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge:
    """No-op gauge (shared singleton of :class:`NullRegistry`)."""

    __slots__ = ()
    kind = "gauge"
    name = ""
    labels: LabelSet = ()
    help = ""
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""


class _NullHistogram:
    """No-op histogram (shared singleton of :class:`NullRegistry`)."""

    __slots__ = ()
    kind = "histogram"
    name = ""
    labels: LabelSet = ()
    help = ""
    buckets: tuple[float, ...] = ()
    count = 0
    sum = 0.0

    def observe(self, value: float, trace_id: int | None = None) -> None:
        """Discard the observation."""

    def exemplars(self) -> list[dict[str, float | int | str]]:
        """Always empty."""
        return []

    def snapshot(self) -> tuple[tuple[float, ...], tuple[int, ...], float, int]:
        """Empty snapshot."""
        return (), (0,), 0.0, 0


_NULL_INSTRUMENTS = {"counter": _NullCounter(), "gauge": _NullGauge(), "histogram": _NullHistogram()}


class NullRegistry:
    """Disabled registry: every operation is a cheap no-op.

    This is the default registry of the :mod:`repro.obs` facade, so
    instrumentation scattered through hot paths costs one call returning
    a shared singleton until observability is explicitly enabled.
    """

    enabled = False
    clock: Clock = DEFAULT_CLOCK
    sampler: TailSampler | None = None

    def get(self, spec: InstrumentSpec) -> object:
        """The shared no-op instrument of the spec's kind (a tuple of them for a family)."""
        null = _NULL_INSTRUMENTS[spec.kind]
        return null if spec.family is None else (null,) * len(spec.family[1])

    def span(
        self, name: str, clock: Clock | None = None, parent: TraceContext | None = None
    ) -> object:
        """Shared no-op context manager (never reads any clock)."""
        return null_span()

    def current_span_id(self) -> int | None:
        """Always ``None`` (no spans while disabled)."""
        return None

    def current_trace_id(self) -> int:
        """Always 0 (no traces while disabled)."""
        return 0

    def active_span_name(self, thread_id: int) -> str | None:
        """Always ``None`` (no spans while disabled)."""
        return None

    def next_trace_id(self) -> int:
        """Always 0, the "untraced" id (never reads any clock)."""
        return 0

    def allocate_span_id(self) -> int:
        """Always 0 (no spans while disabled)."""
        return 0

    def start_trace(self, name: str = "serve.request", mark: str | None = None) -> TraceContext:
        """The shared falsy :data:`~repro.obs.context.NULL_TRACE`."""
        return NULL_TRACE

    def adopt_trace(
        self, name: str, trace_id: int, parent_span_id: int | None = None
    ) -> TraceContext:
        """The shared falsy :data:`~repro.obs.context.NULL_TRACE`."""
        return NULL_TRACE

    def finish_trace(
        self,
        ctx: TraceContext,
        end_s: float,
        records: list[SpanRecord] | tuple[SpanRecord, ...] = (),
        error: bool = False,
    ) -> bool:
        """Discard the trace."""
        return False

    def emit_spans(self, spans: Iterable[tuple[str, float, float]]) -> None:
        """Discard the spans."""

    def record_span(self, record: SpanRecord) -> None:
        """Discard the span."""

    def event(self, name: str, **fields: str) -> None:
        """Discard the event (never reads any clock)."""

    def events(self) -> list[EventRecord]:
        """Always empty."""
        return []

    def instruments(self) -> list[Instrument]:
        """Always empty."""
        return []

    def spans(self) -> list[SpanRecord]:
        """Always empty."""
        return []

    def reset(self) -> None:
        """Nothing to reset."""


__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_CLOCK",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_TRACE_CAPACITY",
    "EVENT_CAPACITY_ENV",
    "Gauge",
    "Histogram",
    "InstrumentSpec",
    "LabelledSpecs",
    "MAX_PENDING_TRACES",
    "MetricsRegistry",
    "NullRegistry",
    "SPAN_HISTOGRAM_NAME",
    "TRACE_CAPACITY_ENV",
    "histogram_quantile",
]
