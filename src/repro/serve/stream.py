"""Drain glue: ingest-plane windows → per-node series and request traces.

Two functions connect the ingest plane (:mod:`repro.ingest`) to the
serving layer:

* :func:`drain_to_series` regroups a merged
  :class:`~repro.ingest.DrainBatch` into per-node
  :class:`~repro.metrics.series.SnapshotSeries`, the currency of
  :class:`~repro.serve.batch.BatchClassifier` and
  :class:`~repro.serve.service.ClassificationService` — the "optionally
  through the micro-batcher" route;
* :func:`drain_trace_contexts` adopts one request trace per regrouped
  series, so a drained window is traced as one request.
"""

from __future__ import annotations

import numpy as np

from ..ingest import DrainBatch
from ..metrics.series import SnapshotSeries
from ..obs import InstrumentSpec, get_registry as obs_get_registry
from ..obs.context import TraceContext

__all__ = [
    "drain_to_series",
    "drain_trace_contexts",
]

_COALESCED = InstrumentSpec.counter(
    "obs.traces.coalesced", "Traced announcements folded into another row's window trace."
)


def drain_to_series(batch: DrainBatch) -> list[SnapshotSeries]:
    """Regroup a merged drain into per-node snapshot series.

    Returns one :class:`~repro.metrics.series.SnapshotSeries` per node
    that has rows in *batch*, in the batch's node order (nodes with no
    rows in this window are skipped).  Within a node the drained rows
    are already in timestamp order, so the series' column order is the
    node's announcement order.  The series own copies of the rows — a
    later drain reusing the plane's buffers cannot mutate them.

    Raises
    ------
    ValueError
        If a node's window carries two announcements with the same
        timestamp (a ``SnapshotSeries`` requires strictly increasing
        times; the plane's duplicate drop only covers consecutive
        pushes).
    """
    series: list[SnapshotSeries] = []
    for node_id, node in enumerate(batch.nodes):
        sel = batch.node_ids == node_id
        if not np.any(sel):
            continue
        series.append(
            SnapshotSeries(
                node=node,
                timestamps=batch.timestamps[sel].copy(),
                matrix=batch.values[sel].T.copy(),
            )
        )
    return series


def drain_trace_contexts(batch: DrainBatch) -> list[TraceContext]:
    """Adopt one request trace per node with rows in *batch*.

    Aligned element-for-element with :func:`drain_to_series`: the i-th
    context belongs to the i-th series.  A drained window coalesces a
    node's announcements into one classification request, so the window
    adopts the trace of its *oldest* row (the request that waited
    longest) and the remaining rows' traces are counted into the
    ``obs.traces.coalesced`` counter rather than finished — they ended
    as part of a window that is observable through the representative
    trace.  Each adopted context is stamped with the ``ingest.push``
    (ring enqueue) and ``ingest.drain`` boundary marks recorded by the
    plane, so downstream attribution can telescope ring-buffer wait and
    drain hand-off into the request's end-to-end latency.

    Returns falsy null contexts when the drain carries no trace ids
    (tracing off at push time) — callers can pass them straight to
    ``submit(..., trace=...)`` unconditionally.
    """
    registry = obs_get_registry()
    contexts: list[TraceContext] = []
    coalesced = 0
    for node_id in range(len(batch.nodes)):
        sel = batch.node_ids == node_id
        rows = int(np.count_nonzero(sel))
        if rows == 0:
            continue
        trace_id = 0
        if batch.trace_ids is not None and batch.trace_ids.shape[0]:
            trace_id = int(batch.trace_ids[sel][0])
        ctx = registry.adopt_trace("serve.request", trace_id)
        if ctx:
            coalesced += rows - 1
            if batch.enqueued_s is not None and batch.enqueued_s.shape[0]:
                ctx.mark("ingest.push", float(batch.enqueued_s[sel][0]))
            if batch.drained_s:
                ctx.mark("ingest.drain", batch.drained_s)
        contexts.append(ctx)
    if coalesced:
        registry.get(_COALESCED).inc(coalesced)
    return contexts
