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

Both group the drain's rows by node once, with one stable argsort;
``ClassificationService.submit_drain`` shares that grouping between
them.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _NodeGroups(NamedTuple):
    """A drain's rows grouped by node, computed once per drain."""

    #: Row indices sorted by node id, timeline order kept within a node.
    order: np.ndarray
    #: Ids of the nodes with rows, ascending.
    present: np.ndarray
    #: ``order[bounds[i]:bounds[i + 1]]`` are the rows of ``present[i]``.
    bounds: np.ndarray


def _group_by_node(batch: DrainBatch) -> _NodeGroups:
    # One stable argsort plus bincount offsets replaces a full-length
    # ``node_ids == k`` mask per registered node.
    node_ids = batch.node_ids
    counts = np.bincount(node_ids, minlength=len(batch.nodes))
    present = np.flatnonzero(counts)
    bounds = np.zeros(present.shape[0] + 1, dtype=np.intp)
    np.cumsum(counts[present], out=bounds[1:])
    return _NodeGroups(np.argsort(node_ids, kind="stable"), present, bounds)


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
    return _series(batch, _group_by_node(batch))


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
    return _trace_contexts(batch, _group_by_node(batch))


def _drain_requests(batch: DrainBatch) -> tuple[list[SnapshotSeries], list[TraceContext]]:
    """Both :func:`drain_to_series` and :func:`drain_trace_contexts` from one grouping."""
    groups = _group_by_node(batch)
    return _series(batch, groups), _trace_contexts(batch, groups)


def _series(batch: DrainBatch, groups: _NodeGroups) -> list[SnapshotSeries]:
    # Fancy indexing copies, so the series never alias the plane's buffers.
    timestamps = batch.timestamps[groups.order]
    values = batch.values[groups.order]
    bounds = groups.bounds.tolist()
    return [
        SnapshotSeries(
            node=batch.nodes[node_id],
            timestamps=timestamps[bounds[i] : bounds[i + 1]],
            matrix=values[bounds[i] : bounds[i + 1]].T.copy(),
        )
        for i, node_id in enumerate(groups.present.tolist())
    ]


def _trace_contexts(batch: DrainBatch, groups: _NodeGroups) -> list[TraceContext]:
    registry = obs_get_registry()
    firsts = groups.order[groups.bounds[:-1]]
    rows = np.diff(groups.bounds).tolist()
    count = len(rows)
    trace_ids = [0] * count
    if batch.trace_ids is not None and batch.trace_ids.shape[0]:
        trace_ids = batch.trace_ids[firsts].tolist()
    enqueued = None
    if batch.enqueued_s is not None and batch.enqueued_s.shape[0]:
        enqueued = batch.enqueued_s[firsts].tolist()
    contexts: list[TraceContext] = []
    coalesced = 0
    for i in range(count):
        ctx = registry.adopt_trace("serve.request", trace_ids[i])
        if ctx:
            coalesced += rows[i] - 1
            if enqueued is not None:
                ctx.mark("ingest.push", enqueued[i])
            if batch.drained_s:
                ctx.mark("ingest.drain", batch.drained_s)
        contexts.append(ctx)
    if coalesced:
        registry.get(_COALESCED).inc(coalesced)
    return contexts
