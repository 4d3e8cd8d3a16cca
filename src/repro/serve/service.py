"""Micro-batching classification service with bounded-queue backpressure.

The fleet-serving front end of :mod:`repro.serve`: callers submit one
snapshot series at a time and get a future back; worker threads collect
submissions into micro-batches — flushed when **either** ``batch_size``
requests have accumulated **or** ``max_wait_s`` has elapsed since the
batch opened — and push each batch through the vectorized
:class:`~repro.serve.batch.BatchClassifier`, so every caller gets the
bit-identical sequential-path result at batched throughput.

Load shedding is explicit: the request queue is bounded, and a full
queue rejects new submissions immediately with
:class:`~repro.errors.ServiceOverloadedError` instead of buffering
without limit.  Shutdown drains by default — accepted requests complete
before the workers exit.

This module runs real threads against real deadlines, so it uses
``time.monotonic`` directly (``repro.serve`` is outside the
determinism-rule scope that covers the classification math itself).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from ..core.pipeline import ApplicationClassifier, ClassificationResult
from ..errors import EmptySeriesError, ServiceOverloadedError
from ..metrics.series import SnapshotSeries
from ..obs import (
    counter as obs_counter,
    enabled as obs_enabled,
    event as obs_event,
    gauge as obs_gauge,
    get_registry as obs_get_registry,
    histogram as obs_histogram,
)
from ..obs.context import TraceContext, build_request_records, observe_attribution
from ..obs.http import TelemetryServer
from .batch import BatchClassifier

__all__ = ["ClassificationService", "ServiceStats"]


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


#: Queue sentinel that tells one worker to exit.
_STOP = object()


class ClassificationService:
    """Accept classification requests and serve them in micro-batches.

    Parameters
    ----------
    classifier:
        A *trained* classifier (validated by the wrapped
        :class:`~repro.serve.batch.BatchClassifier`).
    batch_size:
        Flush a batch as soon as this many requests are collected.
    max_wait_s:
        Flush a batch this many seconds after its first request, even
        if it is not full (bounds per-request latency under light load).
    max_queue:
        Bound on requests buffered ahead of the workers; submissions
        beyond it raise :class:`~repro.errors.ServiceOverloadedError`.
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
        self._queue: queue.Queue[object] = queue.Queue(maxsize=max_queue)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
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
        classified before the workers exit; with ``drain=False`` pending
        requests fail with :class:`~repro.errors.ServiceOverloadedError`.

        Safe to call concurrently from several threads: exactly one
        caller performs the shutdown, and every other caller blocks
        until it has fully finished (guarded state transition on
        ``self._stopping``, completion signalled via an event).
        """
        with self._lock:
            first = not self._stopping
            self._stopping = True
            started = self._started
            threads = list(self._threads)
        if not first:
            # Another thread is (or was) shutting down: wait for it so
            # "shutdown returned" always means "workers are gone".
            self._stopped.wait()
            return
        if self.telemetry is not None:
            # Flip /readyz to draining before any request is failed or
            # drained, so balancers stop routing while we still answer.
            self.telemetry.set_ready(False)
        obs_event("serve.drain.begin", drain=str(drain), pending=str(self._queue.qsize()))
        if not drain:
            self._fail_queued("service shut down before request ran")
        if started:
            for _ in threads:
                self._queue.put(_STOP)
            for thread in threads:
                thread.join()
        else:
            # Never-started service: no worker will drain the queue.
            self._fail_queued("service shut down before starting")
        stats = self.stats
        obs_event("serve.drain.end", completed=str(stats.completed), failed=str(stats.failed))
        if self.telemetry is not None:
            self.telemetry.stop()
        self._stopped.set()

    def _fail_queued(self, message: str) -> None:
        """Fail every request still queued with ``ServiceOverloadedError``."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(item, _Request):
                item.future.set_exception(ServiceOverloadedError(message))
                with self._lock:
                    self._failed += 1

    def stop(self) -> None:
        """Shut down without draining (pending requests fail fast)."""
        self.shutdown(drain=False)

    def drain(self) -> None:
        """Shut down after serving every already-accepted request."""
        self.shutdown(drain=True)

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
        # One critical section covers the stopping check, the enqueue
        # (put_nowait never blocks), and the counter, so a request can
        # never slip into the queue after shutdown() snapshotted it.
        with self._lock:
            if self._stopping:
                raise RuntimeError("service is shut down")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self._rejected += 1
                full = True
            else:
                self._submitted += 1
                full = False
        if full:
            if obs_enabled():
                obs_counter(
                    "serve.requests.rejected", help="Submissions shed by backpressure."
                ).inc()
                obs_event("serve.overloaded", max_queue=str(self.max_queue))
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue} pending); retry later"
            ) from None
        if obs_enabled():
            obs_gauge("serve.queue.depth", help="Requests waiting in the queue.").set(
                self._queue.qsize()
            )
        return request.future

    def classify(
        self, series: SnapshotSeries, timeout: float | None = None
    ) -> ClassificationResult:
        """Blocking convenience: :meth:`submit` and wait for the result."""
        return self.submit(series).result(timeout=timeout)

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
        from .stream import drain_to_series, drain_trace_contexts

        series_list = drain_to_series(batch)
        traces = drain_trace_contexts(batch)
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
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            assert isinstance(item, _Request)
            batch, saw_stop = self._collect_batch(item)
            self._process_batch(batch)
            if saw_stop:
                return

    def _collect_batch(self, first: _Request) -> tuple[list[_Request], bool]:
        """Gather up to ``batch_size`` requests or until the wait window closes.

        Returns the batch plus whether this worker consumed its own stop
        sentinel while collecting (it must exit after flushing).
        """
        registry = obs_get_registry()
        if first.trace:
            first.trace.mark("serve.dequeue", registry.clock())
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.batch_size:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            assert isinstance(item, _Request)
            if item.trace:
                item.trace.mark("serve.dequeue", registry.clock())
            batch.append(item)
        return batch, False

    def _process_batch(self, batch: list[_Request]) -> None:
        timed = obs_enabled()
        registry = obs_get_registry()
        traced = [r for r in batch if r.trace]
        if timed:
            obs_gauge("serve.queue.depth", help="Requests waiting in the queue.").set(
                self._queue.qsize()
            )
            obs_histogram(
                "serve.batch.size",
                help="Requests per flushed micro-batch.",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            ).observe(len(batch))
        if traced:
            # One shared compute mark: the whole micro-batch enters the
            # kernel together, so every trace's batch-wait ends here.
            t_compute = registry.clock()
            for request in traced:
                request.trace.mark("serve.compute", t_compute)
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
                obs_counter(
                    "serve.requests.failed", help="Requests failed by a batch error."
                ).inc(len(batch))
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
                obs_histogram(
                    "serve.request.seconds",
                    help="Submit-to-result latency of one served request.",
                ).observe(done - request.enqueued_at)
        with self._lock:
            self._completed += len(batch)
            self._batches += 1
        if timed:
            obs_counter("serve.requests.completed", help="Requests served.").inc(len(batch))
