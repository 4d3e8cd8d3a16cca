"""Request-scoped trace contexts and tail-based sampling.

One served request crosses four async boundaries (ingest ring → drain →
service queue → worker batch → pipeline); thread-local span stacks lose
its identity at every one.  A :class:`TraceContext` is the explicit
carrier: minted where the request enters the system
(``IngestPlane.push`` / ``ClassificationService.submit``), stored next
to the payload in queues and drain buffers, and re-attached by whichever
worker thread finishes the request, so every span of the request — on
any thread — shares one ``trace_id``.

The context also accumulates ordered *marks* (``(label, clock_reading)``
pairs) at each boundary.  Consecutive marks telescope into attribution
segments — queue wait, batch-formation wait, compute — whose durations
sum *exactly* to the end-to-end latency under any clock, including
integer-stepping fakes: ``(b-a) + (c-b) + (d-c) == d-a``.

:class:`TailSampler` implements tail-based sampling: the keep/drop
decision happens at trace *completion*, when the outcome is known.
Slow and errored traces are always kept; boring ones survive with a
seeded pseudo-random probability, so the bounded trace ring holds the
traces worth reading.

Stdlib-only, and deliberately independent of the registry module: the
registry imports *this* module, never the reverse.
"""

from __future__ import annotations

import os
import random
import threading

from .spans import SpanRecord
from .spec import InstrumentSpec

#: Environment knob: install a :class:`TailSampler` with this keep ratio
#: at ``obs.enable()`` time (``0.0`` drops every boring trace, ``1.0``
#: keeps everything; junk values mean "no sampler").
SAMPLER_RATE_ENV = "REPRO_OBS_SAMPLER_RATE"
#: Environment knob: override the sampler's always-keep slowness
#: threshold (seconds) when installing from :data:`SAMPLER_RATE_ENV`.
SAMPLER_SLOW_ENV = "REPRO_OBS_SAMPLER_SLOW_S"

#: Traces at least this slow (seconds, end to end) are always kept.
DEFAULT_SLOW_THRESHOLD_S = 0.5

#: Span names synthesized for the segment between two consecutive marks.
SEGMENT_SPAN_NAMES: dict[tuple[str, str], str] = {
    ("ingest.push", "ingest.drain"): "ingest.buffer",
    ("ingest.drain", "serve.enqueue"): "ingest.handoff",
    ("serve.enqueue", "serve.dequeue"): "serve.queue.wait",
    ("serve.dequeue", "serve.compute"): "serve.batch.wait",
}

#: The five Figure-2 pipeline stages, in execution order — the names of
#: the per-stage spans synthesized under a trace (mirroring the
#: ``pipeline.stage.seconds`` histogram's ``stage`` label values).
PIPELINE_STAGE_NAMES = ("filter", "normalize", "pca", "knn", "postprocess")

_QUEUE_WAIT = InstrumentSpec.histogram(
    "serve.queue_wait.seconds", "Submit-to-dequeue wait in the service queue."
)
_BATCH_WAIT = InstrumentSpec.histogram(
    "serve.batch_wait.seconds", "Dequeue-to-compute wait while a micro-batch forms."
)
_DRAIN_TO_CLASSIFY = InstrumentSpec.histogram(
    "ingest.drain_to_classify.seconds", "Ingest-drain to batch-compute hand-off latency."
)


class TraceContext:
    """Identity and boundary timestamps of one in-flight request.

    Plain mutable object, mutated only by the thread currently holding
    the request (the carrier hand-off *is* the synchronization: a
    context is never touched from two threads at once).

    ``span_id`` is the id of the trace's root span, allocated at mint so
    spans on other threads can parent to the root *before* the root
    record itself is written at :meth:`MetricsRegistry.finish_trace`.
    """

    __slots__ = ("trace_id", "span_id", "name", "parent_span_id", "marks")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        name: str = "serve.request",
        parent_span_id: int | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.name = name
        self.parent_span_id = parent_span_id
        #: Ordered ``(label, clock_reading)`` boundary marks.
        self.marks: list[tuple[str, float]] = []

    def __bool__(self) -> bool:
        return True

    def mark(self, label: str, t_s: float) -> None:
        """Record the boundary *label* at clock reading *t_s*."""
        self.marks.append((label, float(t_s)))

    def mark_time(self, label: str) -> float | None:
        """Clock reading of the first mark named *label*, if present."""
        for name, t_s in self.marks:
            if name == label:
                return t_s
        return None

    @property
    def started_s(self) -> float:
        """Clock reading of the first mark (the trace's start)."""
        return self.marks[0][1] if self.marks else 0.0

    def segments(self) -> list[tuple[str, float, float]]:
        """``(name, start_s, duration_s)`` per consecutive mark pair.

        Segment durations telescope: their sum equals the last mark
        minus the first exactly, under any clock.
        """
        out = []
        for (l0, t0), (l1, t1) in zip(self.marks, self.marks[1:]):
            name = SEGMENT_SPAN_NAMES.get((l0, l1), f"{l0}..{l1}")
            out.append((name, t0, t1 - t0))
        return out


class _NullTraceContext(TraceContext):
    """Falsy no-op context handed out while observability is disabled."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0, 0, name="")

    def __bool__(self) -> bool:
        return False

    def mark(self, label: str, t_s: float) -> None:
        """Discard the mark (the null context stays empty)."""


#: Shared falsy context: carriers can store it unconditionally and gate
#: all tracing work on its truthiness.
NULL_TRACE = _NullTraceContext()


class TailSampler:
    """Tail-based keep/drop policy, decided at trace completion.

    Always keeps errored traces and traces slower than
    *slow_threshold_s*; other traces are kept with probability
    *keep_ratio* drawn from a seeded :class:`random.Random`, so a test
    that replays the same completion sequence sees the same keep/drop
    pattern.  Callers may force a keep for SLO-violating traces via the
    ``slo_breach`` flag.

    Thread-safe: the generator is guarded by a lock (decisions from
    concurrent workers interleave nondeterministically, but each draw is
    well-defined).
    """

    __slots__ = ("keep_ratio", "slow_threshold_s", "seed", "_rng", "_lock")

    def __init__(
        self,
        keep_ratio: float = 0.1,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= keep_ratio <= 1.0:
            raise ValueError(f"keep_ratio must be in [0, 1], got {keep_ratio}")
        self.keep_ratio = float(keep_ratio)
        self.slow_threshold_s = float(slow_threshold_s)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def decide(
        self, duration_s: float, error: bool = False, slo_breach: bool = False
    ) -> tuple[bool, str]:
        """``(keep, reason)`` for a trace that just finished.

        ``reason`` is one of ``error`` / ``slo`` / ``slow`` / ``sampled``
        / ``dropped`` — the first three never consume a random draw, so
        the pseudo-random sequence only advances for boring traces.
        """
        if error:
            return True, "error"
        if slo_breach:
            return True, "slo"
        if duration_s >= self.slow_threshold_s:
            return True, "slow"
        with self._lock:
            draw = self._rng.random()
        if draw < self.keep_ratio:
            return True, "sampled"
        return False, "dropped"


def sampler_from_env() -> TailSampler | None:
    """Build the sampler :data:`SAMPLER_RATE_ENV` asks for, if any.

    Returns ``None`` (no sampling: every trace kept) when the variable
    is unset or junk.  :data:`SAMPLER_SLOW_ENV` optionally overrides the
    slowness threshold.
    """
    raw = os.environ.get(SAMPLER_RATE_ENV)
    if raw is None:
        return None
    try:
        rate = float(raw)
    except ValueError:
        return None
    if not 0.0 <= rate <= 1.0:
        return None
    slow = DEFAULT_SLOW_THRESHOLD_S
    raw_slow = os.environ.get(SAMPLER_SLOW_ENV)
    if raw_slow is not None:
        try:
            slow = float(raw_slow)
        except ValueError:
            slow = DEFAULT_SLOW_THRESHOLD_S
    return TailSampler(keep_ratio=rate, slow_threshold_s=slow)


def build_request_records(
    registry,
    ctx: TraceContext,
    end_s: float,
    stage_seconds: tuple[float, ...] | None = None,
    share: float = 1.0,
    error: bool = False,
) -> list[SpanRecord]:
    """Synthesize the attribution child spans of a finished request.

    One span per boundary segment (queue wait, batch wait, …) plus a
    ``pipeline.classify`` span covering the compute tail — last mark to
    *end_s* — with the five stage spans nested under it when the batch's
    *stage_seconds* are known (apportioned by *share*, this request's
    fraction of the batch).  All spans parent to the trace's root; their
    durations telescope, so depth-1 children sum exactly to the root's
    end-to-end duration.  *registry* only supplies span ids
    (:meth:`MetricsRegistry.allocate_span_id`).
    """
    records: list[SpanRecord] = []
    for name, start_s, duration_s in ctx.segments():
        records.append(
            SpanRecord(
                name, ctx.name, 1, start_s, duration_s,
                registry.allocate_span_id(), ctx.span_id, ctx.trace_id,
            )
        )
    tail_start = ctx.marks[-1][1] if ctx.marks else end_s
    tail_name = "serve.failed" if error else "pipeline.classify"
    tail_id = registry.allocate_span_id()
    records.append(
        SpanRecord(
            tail_name, ctx.name, 1, tail_start, end_s - tail_start,
            tail_id, ctx.span_id, ctx.trace_id,
        )
    )
    if not error and stage_seconds:
        t = tail_start
        for stage, total_s in zip(PIPELINE_STAGE_NAMES, stage_seconds):
            duration_s = total_s * share
            records.append(
                SpanRecord(
                    f"pipeline.stage.{stage}", tail_name, 2, t, duration_s,
                    registry.allocate_span_id(), tail_id, ctx.trace_id,
                )
            )
            t += duration_s
    return records


def observe_attribution(registry, ctx: TraceContext) -> None:
    """Observe the boundary-wait histograms for a finished request.

    Each observation carries the trace id as an exemplar, so a scrape of
    ``/metrics.json`` links a suspicious bucket straight to a kept
    trace.  Missing marks (direct ``submit`` with no ingest leg) simply
    skip their histogram.
    """
    t_enq = ctx.mark_time("serve.enqueue")
    t_deq = ctx.mark_time("serve.dequeue")
    t_cmp = ctx.mark_time("serve.compute")
    t_drain = ctx.mark_time("ingest.drain")
    if t_enq is not None and t_deq is not None:
        registry.get(_QUEUE_WAIT).observe(t_deq - t_enq, trace_id=ctx.trace_id)
    if t_deq is not None and t_cmp is not None:
        registry.get(_BATCH_WAIT).observe(t_cmp - t_deq, trace_id=ctx.trace_id)
    if t_drain is not None and t_cmp is not None:
        registry.get(_DRAIN_TO_CLASSIFY).observe(t_cmp - t_drain, trace_id=ctx.trace_id)


__all__ = [
    "DEFAULT_SLOW_THRESHOLD_S",
    "NULL_TRACE",
    "PIPELINE_STAGE_NAMES",
    "SAMPLER_RATE_ENV",
    "SAMPLER_SLOW_ENV",
    "SEGMENT_SPAN_NAMES",
    "TailSampler",
    "TraceContext",
    "build_request_records",
    "observe_attribution",
    "sampler_from_env",
]
