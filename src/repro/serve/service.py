"""Micro-batching classification service with bounded-queue backpressure.

The fleet-serving front end of :mod:`repro.serve`: callers submit one
snapshot series at a time and get a future back; worker threads collect
submissions into micro-batches — flushed when **either** ``batch_size``
requests are queued **or** ``max_wait_s`` has elapsed since the batch
window opened — and push each batch through the vectorized
:class:`~repro.serve.batch.BatchClassifier`, so every caller gets the
bit-identical sequential-path result at batched throughput.

Pending requests live in one bounded FIFO (a ``deque``) guarded by the
service lock, which also guards the counters and the stopping flag; one
``Condition`` over that lock wakes the workers.  Load shedding is
explicit: a submission that finds ``max_queue`` requests pending is
rejected immediately with :class:`~repro.errors.ServiceOverloadedError`
instead of buffering without limit.  Shutdown drains by default —
accepted requests complete before the workers exit.  A request counts
as *taken* once a worker has popped its batch from the FIFO:
``shutdown(drain=False)`` fails every request not yet taken and lets
the batches already taken complete.

This module runs real threads against real deadlines, so it uses
``time.monotonic`` directly (``repro.serve`` is outside the
determinism-rule scope that covers the classification math itself).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

from ..core.pipeline import ApplicationClassifier, ClassificationResult
from ..errors import EmptySeriesError, ServiceOverloadedError
from ..metrics.series import SnapshotSeries
from ..obs import (
    InstrumentSpec,
    enabled as obs_enabled,
    event as obs_event,
    get as obs_get,
    get_registry as obs_get_registry,
)
from ..obs.context import TraceContext, build_request_records, observe_attribution
from ..obs.http import TelemetryServer
from .batch import BatchClassifier

__all__ = ["ClassificationService", "ServiceStats"]

_REJECTED = InstrumentSpec.counter("serve.requests.rejected", "Submissions shed by backpressure.")
_FAILED = InstrumentSpec.counter("serve.requests.failed", "Requests failed by a batch error.")
_COMPLETED = InstrumentSpec.counter("serve.requests.completed", "Requests served.")
_QUEUE_DEPTH = InstrumentSpec.gauge("serve.queue.depth", "Requests waiting in the queue.")
_BATCH_SIZE = InstrumentSpec.histogram(
    "serve.batch.size",
    "Requests per flushed micro-batch.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_REQUEST_SECONDS = InstrumentSpec.histogram(
    "serve.request.seconds", "Submit-to-result latency of one served request."
)


@dataclass(frozen=True)
class ServiceStats:
    """Lifetime counters of one service instance."""

    submitted: int
    rejected: int
    completed: int
    failed: int
    batches: int

    @property
    def pending(self) -> int:
        """Requests accepted but not yet completed or failed."""
        return self.submitted - self.completed - self.failed


class _Request:
    """One queued classification request.

    ``trace`` is the request's :class:`~repro.obs.context.TraceContext`
    (or ``None`` untraced) — carried *explicitly* through the queue so
    the worker thread that serves the request can re-attach it without
    any thread-local crossing the boundary.
    """

    __slots__ = ("series", "future", "enqueued_at", "trace")

    def __init__(
        self,
        series: SnapshotSeries,
        enqueued_at: float,
        trace: TraceContext | None = None,
    ) -> None:
        self.series = series
        self.future: Future[ClassificationResult] = Future()
        self.enqueued_at = enqueued_at
        self.trace = trace


class ClassificationService:
    """Accept classification requests and serve them in micro-batches.

    Parameters
    ----------
    classifier:
        A *trained* classifier (validated by the wrapped
        :class:`~repro.serve.batch.BatchClassifier`).
    batch_size:
        Flush a batch as soon as this many requests are queued.
    max_wait_s:
        Flush a batch this many seconds after a worker found its first
        request, even if it is not full (bounds per-request latency
        under light load).
    max_queue:
        Bound on requests queued and not yet taken by a worker;
        submissions beyond it raise
        :class:`~repro.errors.ServiceOverloadedError`.
    workers:
        Worker threads pulling batches (1 is enough for the GIL-bound
        NumPy kernel; more overlap when callers block on results).
    autostart:
        Start workers immediately; pass ``False`` to control startup
        (e.g. tests that fill the queue before any draining happens).
    telemetry:
        Optional :class:`~repro.obs.http.TelemetryServer` tied to this
        service's lifecycle: started with the worker pool, flipped to
        not-ready (``/readyz`` 503) the moment shutdown begins, and
        stopped after the queue drains — so a load balancer stops
        routing to a draining replica before its socket disappears.
    """

    def __init__(
        self,
        classifier: ApplicationClassifier,
        *,
        batch_size: int = 16,
        max_wait_s: float = 0.01,
        max_queue: int = 64,
        workers: int = 1,
        autostart: bool = True,
        telemetry: TelemetryServer | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        self.batch = BatchClassifier(classifier)
        self.batch_size = batch_size
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self._pending: deque[_Request] = deque()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        # Wakes workers: a request arrived, a batch filled, or shutdown.
        self._ready = threading.Condition(self._lock)
        self._started = False
        self._stopping = False
        # Set once the first shutdown() call has fully finished, so
        # concurrent shutdown() callers block until the drain is done
        # instead of returning while workers are still exiting.
        self._stopped = threading.Event()
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._num_workers = workers
        self.telemetry = telemetry
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the worker threads; idempotent.

        Raises
        ------
        RuntimeError
            After :meth:`shutdown` (a service does not restart).
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError("service is shut down")
            if self._started:
                return
            self._started = True
            for i in range(self._num_workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
                )
                self._threads.append(thread)
                thread.start()
        if self.telemetry is not None:
            self.telemetry.start()
            self.telemetry.set_ready(True)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting requests and stop the workers; idempotent.

        With ``drain=True`` (default) every already-accepted request is
        classified before the workers exit; with ``drain=False`` every
        request no worker has taken yet fails with
        :class:`~repro.errors.ServiceOverloadedError`, while batches
        already taken complete.  A never-started service fails its
        queued requests either way (no worker would serve them).

        Safe to call concurrently from several threads: exactly one
        caller performs the shutdown, and every other caller blocks
        until it has fully finished (guarded state transition on
        ``self._stopping``, completion signalled via an event).
        """
        with self._lock:
            first = not self._stopping
            self._stopping = True
            self._ready.notify_all()
            threads = list(self._threads)
            pending = len(self._pending)
            unserved: list[_Request] = []
            if first and (not drain or not threads):
                unserved = list(self._pending)
                self._pending.clear()
                self._failed += len(unserved)
        if not first:
            # Another thread is (or was) shutting down: wait for it so
            # "shutdown returned" always means "workers are gone".
            self._stopped.wait()
            return
        if self.telemetry is not None:
            # Flip /readyz to draining before any request is failed, so
            # balancers stop routing while we still answer.
            self.telemetry.set_ready(False)
        obs_event("serve.drain.begin", drain=str(drain), pending=str(pending))
        reason = "before request ran" if threads else "before starting"
        for request in unserved:
            request.future.set_exception(
                ServiceOverloadedError(f"service shut down {reason}")
            )
        for thread in threads:
            thread.join()
        stats = self.stats
        obs_event("serve.drain.end", completed=str(stats.completed), failed=str(stats.failed))
        if self.telemetry is not None:
            self.telemetry.stop()
        self._stopped.set()

    def __enter__(self) -> "ClassificationService":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self, series: SnapshotSeries, *, trace: TraceContext | None = None
    ) -> Future[ClassificationResult]:
        """Enqueue one series; returns a future with its ClassificationResult.

        While observability is enabled every submission mints (or, via
        *trace*, adopts — the ingest plane hands in contexts minted at
        ``push``) a request trace and stamps its ``serve.enqueue``
        boundary mark, so the worker that eventually serves the request
        can attribute queue wait, batch-formation wait, and compute to
        this exact request.

        Raises
        ------
        ServiceOverloadedError
            If the bounded request queue is full (back-pressure: shed
            load at the edge instead of buffering without bound).
        EmptySeriesError
            For an empty series (rejected before it can poison a batch).
        RuntimeError
            After shutdown.
        """
        if len(series) == 0:
            raise EmptySeriesError("cannot classify an empty series")
        registry = obs_get_registry()
        ctx = trace if trace is not None else registry.start_trace("serve.request")
        if ctx:
            ctx.mark("serve.enqueue", registry.clock())
        request = _Request(series, time.monotonic(), ctx if ctx else None)
        # One critical section covers the stopping check, the bound, the
        # append, and the counter, so a request can never slip into the
        # queue after shutdown() snapshotted it.
        with self._lock:
            if self._stopping:
                raise RuntimeError("service is shut down")
            depth = len(self._pending)
            full = depth >= self.max_queue
            if full:
                self._rejected += 1
            else:
                self._pending.append(request)
                self._submitted += 1
                depth += 1
                # A worker waits for a first request, then for a full
                # batch: only these two transitions can end a wait.
                if depth == 1 or depth == self.batch_size:
                    self._ready.notify()
        if full:
            if obs_enabled():
                obs_get(_REJECTED).inc()
                obs_event("serve.overloaded", max_queue=str(self.max_queue))
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue} pending); retry later"
            )
        if obs_enabled():
            obs_get(_QUEUE_DEPTH).set(depth)
        return request.future

    def submit_drain(self, batch) -> list[Future[ClassificationResult]]:
        """Enqueue an ingest-plane drain as per-node series requests.

        Regroups a :class:`~repro.ingest.DrainBatch` into per-node
        series (:func:`~repro.serve.stream.drain_to_series`) and submits
        each — the route from the streaming ingest plane into the
        micro-batcher, keeping its backpressure and draining-shutdown
        semantics.  Returns one future per node with rows in the drain,
        in the drain's node order.  Trace contexts minted at
        ``IngestPlane.push`` ride along
        (:func:`~repro.serve.stream.drain_trace_contexts`), so a request
        trace spans ring, drain, queue, and batch.

        Raises
        ------
        ServiceOverloadedError
            If the bounded queue fills mid-drain (already-submitted
            futures stay live; the rest of the drain is shed).
        RuntimeError
            After shutdown.
        """
        from .stream import _drain_requests

        series_list, traces = _drain_requests(batch)
        return [
            self.submit(series, trace=trace)
            for series, trace in zip(series_list, traces)
        ]

    @property
    def stats(self) -> ServiceStats:
        """Lifetime request/batch counters (a consistent snapshot)."""
        with self._lock:
            return ServiceStats(
                submitted=self._submitted,
                rejected=self._rejected,
                completed=self._completed,
                failed=self._failed,
                batches=self._batches,
            )

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        """Serve batches until shutdown begins with nothing queued.

        A batch window opens when the worker finds a request and closes
        once ``batch_size`` requests are queued, ``max_wait_s`` has
        passed, or shutdown begins; the batch is popped in the same hold
        of the lock.
        """
        while True:
            with self._lock:
                self._ready.wait_for(lambda: self._pending or self._stopping)
                if not self._pending:
                    return
                opened = obs_get_registry().clock()
                self._ready.wait_for(
                    lambda: len(self._pending) >= self.batch_size or self._stopping,
                    self.max_wait_s,
                )
                # Another worker may have emptied the queue meanwhile.
                n = min(len(self._pending), self.batch_size)
                batch = [self._pending.popleft() for _ in range(n)]
                depth = len(self._pending)
                if depth:
                    self._ready.notify()  # leftovers for an idle worker
            if batch:
                self._process_batch(batch, opened, depth)

    def _process_batch(self, batch: list[_Request], opened: float, depth: int) -> None:
        registry = obs_get_registry()
        timed = registry.enabled
        traced = [r for r in batch if r.trace]
        if timed:
            registry.get(_QUEUE_DEPTH).set(depth)
            registry.get(_BATCH_SIZE).observe(len(batch))
        if traced:
            # Queue wait ends when the window opened, or at enqueue for a
            # request that arrived inside the window (its latest mark).
            # One shared compute mark: the whole micro-batch enters the
            # kernel together, so every trace's batch-wait ends here.
            t_compute = registry.clock()
            for request in traced:
                ctx = request.trace
                ctx.mark("serve.dequeue", max(opened, ctx.marks[-1][1]))
                ctx.mark("serve.compute", t_compute)
        try:
            if traced:
                results, stage_seconds = self.batch.classify_batch_traced(
                    [r.series for r in batch]
                )
            else:
                results = self.batch.classify_batch([r.series for r in batch])
        except Exception as exc:  # propagate to every waiting caller
            if traced:
                t_err = registry.clock()
                for request in traced:
                    ctx = request.trace
                    records = build_request_records(registry, ctx, t_err, error=True)
                    registry.finish_trace(ctx, t_err, records=records, error=True)
            for request in batch:
                request.future.set_exception(exc)
            with self._lock:
                self._failed += len(batch)
                self._batches += 1
            if timed:
                registry.get(_FAILED).inc(len(batch))
            return
        if traced:
            # Finish every trace *before* resolving any future, so a
            # caller that inspects the registry after .result() always
            # sees its request's spans committed (or sampled away).
            t_done = registry.clock()
            total_rows = sum(len(r.series) for r in batch)
            for request in traced:
                ctx = request.trace
                share = len(request.series) / total_rows
                records = build_request_records(
                    registry, ctx, t_done, stage_seconds=stage_seconds, share=share
                )
                observe_attribution(registry, ctx)
                registry.finish_trace(ctx, t_done, records=records)
        done = time.monotonic()
        for request, result in zip(batch, results):
            request.future.set_result(result)
            if timed:
                registry.get(_REQUEST_SECONDS).observe(done - request.enqueued_at)
        with self._lock:
            self._completed += len(batch)
            self._batches += 1
        if timed:
            registry.get(_COMPLETED).inc(len(batch))
