"""repro.serve — batched fleet-classification serving layer.

The paper's resource manager classifies one profiled run at a time; a
deployment watching a fleet classifies hundreds of short monitoring
windows per scheduling round.  This package is the serving layer for
that regime:

- :class:`~repro.serve.batch.BatchClassifier` — vectorized
  ``classify_batch`` over many snapshot series, **bit-identical** to the
  sequential ``classify_series`` path at a multiple of its throughput;
  it returns a :class:`~repro.core.pipeline.BatchResult`, the call's
  stacked arrays with per-run views built on access;
- :class:`~repro.serve.service.ClassificationService` — bounded-queue
  micro-batching front end (flush on size or time) with explicit
  backpressure via :class:`~repro.errors.ServiceOverloadedError`;
- :class:`~repro.serve.cache.ModelCache` — trained models memoized by
  :class:`~repro.core.config.ClassifierConfig`, shared across managers
  and workers;
- :func:`~repro.serve.stream.drain_to_series` — the ingest-plane
  consumer: drain→series regrouping for the micro-batcher
  (``ClassificationService.submit_drain``).

The CI ratio gates that time these paths against their slower
references are ``benchmarks/bench_serve_throughput.py`` and
``benchmarks/bench_ingest.py``.

Typical use::

    from repro.serve import ClassificationService

    with ClassificationService(classifier, batch_size=32) as service:
        futures = [service.submit(run.series) for run in fleet]
        results = [f.result() for f in futures]
"""

from __future__ import annotations

from .batch import BatchClassifier, BatchResult
from .cache import ModelCache, Trainer
from .service import ClassificationService, ServiceStats
from .stream import drain_to_series

__all__ = [
    "BatchClassifier",
    "BatchResult",
    "ClassificationService",
    "ModelCache",
    "ServiceStats",
    "Trainer",
    "drain_to_series",
]
