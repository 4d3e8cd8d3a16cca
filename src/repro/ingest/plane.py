"""The ingest plane: one columnar ring store in, merged chronological batches out.

:class:`IngestPlane` is the streaming buffer between the monitoring
substrate and the batched classification kernels.  Producers —
``gmond`` daemons announcing on the multicast channel, or anything
calling :meth:`IngestPlane.push` directly — land announcements in one
columnar ring store with no per-announcement Python objects: a
slot-major ``(capacity, nodes)`` timestamp array (``+inf`` in empty
slots), a ``(capacity, nodes, 33)`` value array, and trace-id and
enqueue arrays of the timestamp array's shape, plus each node's ring
head, count and newest timestamp.  Consumers call :meth:`IngestPlane.drain`,
which counts every node's drainable rows, gathers them in one pass and
merges them into the global chronological timeline
(:mod:`repro.ingest.timeline`), ready for a single vectorized classify
call.

Ring semantics
--------------
Each node's column of the store is a fixed-capacity ring.  Overflow is
drop-oldest: a push into a full ring overwrites its oldest entry and
counts it as ``overflowed`` — the consumer is behind, and the freshest
telemetry is worth more than the stalest.  A push older than its
node's newest timestamp is accepted and flags the node out of order;
the next drain re-sorts that node's ring once, stably (equal
timestamps keep their arrival order), so the in-order path stays
sort-free.

Watermark semantics (out-of-order tolerance)
--------------------------------------------
The plane tracks the newest timestamp seen across all nodes; the
**watermark** trails it by ``lateness_s``.  A drain only emits rows
with ``timestamp <= watermark``, so an announcement up to
``lateness_s`` behind the newest traffic still lands in its correct
merged position.  Rows already emitted define the **frontier** (the
largest emitted timestamp, monotone).  An announcement at or behind the
frontier is **late**: under the default ``late_policy="accept"`` it is
counted and emitted in a later drain (locally sorted within that
drain); under ``late_policy="drop"`` it is counted and discarded.  An
announcement whose timestamp exactly equals its node's previous one is
a **duplicate** and is always dropped.

Batches are views into buffers owned by the plane and reused across
drains — consume (or copy) a :class:`DrainBatch` before the next drain.

dtype: float64
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..metrics.catalog import NUM_METRICS
from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from ..obs import (
    InstrumentSpec,
    LabelledSpecs,
    SloRule,
    enabled as obs_enabled,
    event as obs_event,
    get as obs_get,
    get_registry as obs_get_registry,
)
from .timeline import stable_merge_order

#: Default per-node ring capacity.  At the paper's 5-second heartbeat
#: this buffers well over an hour of one node's announcements.
DEFAULT_RING_CAPACITY: int = 1024

#: Late-announcement policies: buffer for the next drain, or discard.
LATE_POLICIES = ("accept", "drop")

#: Drain-size histogram buckets (rows per drain).
DRAIN_ROWS_BUCKETS = (1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)

_RECEIVED = InstrumentSpec.counter(
    "ingest.announcements.received", "Announcements offered to the ingest plane."
)
_LATE = InstrumentSpec.counter(
    "ingest.announcements.late", "Late announcements accepted behind the frontier."
)
_DROPPED = {
    reason: InstrumentSpec.counter(
        "ingest.announcements.dropped", "Announcements the ingest plane discarded.", reason=reason
    )
    for reason in ("filtered", "invalid", "duplicate", "late", "overflow")
}
_DRAIN_ROWS = InstrumentSpec.histogram(
    "ingest.drain.rows", "Announcements gathered per drain.", buckets=DRAIN_ROWS_BUCKETS
)
_DRAIN_SECONDS = InstrumentSpec.histogram("ingest.drain.seconds", "Drain gather+merge latency.")
_OCCUPANCY = LabelledSpecs(
    InstrumentSpec.gauge("ingest.ring.occupancy", "Per-node ring fill fraction."), "node"
)

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DrainBatch",
    "IngestPlane",
    "IngestStats",
    "LATE_POLICIES",
    "ingest_slo_rules",
]


@dataclass(frozen=True)
class DrainBatch:
    """One drained, chronologically merged window of announcements.

    ``timestamps``, ``node_ids`` and ``values`` are parallel arrays in
    merged timeline order (timestamp ascending; ties in node order,
    arrival order within a node).  ``node_ids[i]`` indexes ``nodes``.
    The arrays are **views into the plane's reused drain buffers** —
    valid until the next ``drain()`` on the same plane; copy them to
    keep a batch across drains.
    """

    nodes: tuple[str, ...]
    node_ids: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray
    watermark: float
    #: Request-trace ids per row (0 where tracing was off at push time);
    #: ``None`` on batches built without the trace columns.
    trace_ids: np.ndarray | None = None
    #: Registry-clock reading at each row's ``push()`` (0.0 untraced).
    enqueued_s: np.ndarray | None = None
    #: Registry-clock reading when this batch was drained (0.0 when
    #: observability was off), the trace's ``ingest.drain`` mark.
    drained_s: float = 0.0

    def __len__(self) -> int:
        """Number of announcements in the batch."""
        return int(self.node_ids.shape[0])


@dataclass(frozen=True)
class IngestStats:
    """Consistent snapshot of the plane's lifetime accounting."""

    received: int
    filtered: int
    invalid: int
    late_accepted: int
    late_dropped: int
    duplicates: int
    overflowed: int
    drains: int
    drained_rows: int
    buffered: int


class IngestPlane:
    """A columnar per-node ring store with watermarked, merged batch drains.

    Parameters
    ----------
    channel:
        Optional multicast channel to subscribe to (the ``gmond`` →
        ``aggregator`` announcement bus).  Without one, feed the plane
        through :meth:`push`.
    capacity:
        Per-node ring capacity; a node more than *capacity*
        announcements ahead of the consumer drops its oldest entries.
    lateness_s:
        Watermark lag: how far behind the newest seen timestamp a drain
        holds back, to give out-of-order announcements time to arrive.
    late_policy:
        ``"accept"`` (default) buffers announcements that arrive behind
        the emitted frontier for the next drain; ``"drop"`` discards
        them.  Both count them.
    nodes:
        Optional allow-list; announcements from other nodes are
        filtered (and counted), mirroring ``OnlineClassifier``.
    """

    def __init__(
        self,
        channel: MulticastChannel | None = None,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        lateness_s: float = 0.0,
        late_policy: str = "accept",
        nodes: Iterable[str] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        if lateness_s < 0.0:
            raise ValueError("lateness_s must be non-negative")
        if late_policy not in LATE_POLICIES:
            raise ValueError(f"late_policy must be one of {LATE_POLICIES}, got {late_policy!r}")
        self.channel = channel
        self.capacity = int(capacity)
        self.lateness_s = float(lateness_s)
        self.late_policy = late_policy
        self._allow = set(nodes) if nodes is not None else None
        # The store: one ring per node column, grown geometrically as
        # nodes register.  Per-node scalars that push touches are plain
        # lists.
        self._node_id: dict[str, int] = {}  # in registration order
        self._head: list[int] = []
        self._count: list[int] = []
        self._newest: list[float] = []
        self._unordered: set[int] = set()
        self._written = 0  # slots [0, _written) of some ring were ever written
        self._grow(0)
        if nodes is not None:
            for node in nodes:
                self._register(node)
        self._max_seen = -np.inf
        self._frontier = -np.inf
        # Lifetime accounting (plain ints: always on, obs or not).
        self._received = 0
        self._filtered = 0
        self._invalid = 0
        self._late_accepted = 0
        self._late_dropped = 0
        self._duplicates = 0
        self._overflowed = 0
        self._drains = 0
        self._drained_rows = 0
        self._callback = self._on_announcement
        self._attached = False
        if channel is not None:
            self.attach()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while subscribed to the channel."""
        return self._attached

    def attach(self) -> None:
        """(Re)subscribe to the channel; idempotent.

        Raises
        ------
        RuntimeError
            If the plane was built without a channel.
        """
        if self.channel is None:
            raise RuntimeError("IngestPlane has no channel; feed it via push()")
        if self._attached:
            return
        self.channel.subscribe(self._callback)
        self._attached = True
        obs_event("ingest.attach", nodes=str(len(self._node_id)))

    def detach(self) -> None:
        """Unsubscribe from the channel; idempotent, tolerates torn-down channels."""
        if not self._attached:
            return
        self._attached = False
        obs_event("ingest.detach", nodes=str(len(self._node_id)))
        try:
            self.channel.unsubscribe(self._callback)
        except ValueError:
            # The channel no longer knows this listener (torn down or
            # replaced underneath us); shutdown must not blow up.
            pass

    def _on_announcement(self, announcement: MetricAnnouncement) -> None:
        self.push(announcement.node, announcement.timestamp, announcement.values)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _grow(self, nodes: int) -> None:
        """Reallocate the store and the drain buffers for *nodes* node columns.

        The store is slot-major, so the slots the rings use (an emptied
        ring restarts at slot 0) stay in a compact prefix of its pages.
        NumPy backs large arrays with transparent huge pages where the
        kernel offers them, and a node-major layout would then make a
        few slots of every node's ring fault in the whole store.  Only
        the slots some ring ever wrote are copied.  The trace columns
        start at zero: an empty slot's trace id and enqueue time are 0.
        """
        shape = (self.capacity, nodes)
        timestamps = np.full(shape, np.inf)
        values = np.empty(shape + (NUM_METRICS,), dtype=np.float64)
        trace_ids = np.zeros(shape, dtype=np.int64)
        enqueued_s = np.zeros(shape, dtype=np.float64)
        n, w = len(self._node_id), self._written
        if n:
            timestamps[:w, :n] = self._ts[:w, :n]
            values[:w, :n] = self._vals[:w, :n]
            trace_ids[:w, :n] = self._tid[:w, :n]
            enqueued_s[:w, :n] = self._enq[:w, :n]
        self._ts, self._vals, self._tid, self._enq = timestamps, values, trace_ids, enqueued_s
        self._cell_views()
        # A drain emits at most every buffered row.
        size = nodes * self.capacity
        self._out_ts = np.empty(size, dtype=np.float64)
        self._out_vals = np.empty((size, NUM_METRICS), dtype=np.float64)
        self._out_nodes = np.empty(size, dtype=np.intp)
        self._out_tid = np.empty(size, dtype=np.int64)
        self._out_enq = np.empty(size, dtype=np.float64)

    def _cell_views(self) -> None:
        """Flat memoryviews of the four store arrays, for push's cell writes.

        Cell ``slot * columns + node_id`` of the flat timestamp and
        trace arrays is one ring slot; the values array holds it at
        ``cell * NUM_METRICS``.  ``columns`` is the store's allocated
        width, not the number of registered nodes.
        """
        self._columns = self._ts.shape[1]
        self._ts_cells = memoryview(self._ts.reshape(-1))
        self._vals_cells = memoryview(self._vals.reshape(-1))
        self._tid_cells = memoryview(self._tid.reshape(-1))
        self._enq_cells = memoryview(self._enq.reshape(-1))

    def __getstate__(self) -> dict:
        """Pickle the plane without the store's memoryviews (they do not pickle)."""
        state = self.__dict__.copy()
        for name in ("_ts_cells", "_vals_cells", "_tid_cells", "_enq_cells"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled plane and rebuild the views over its own store."""
        self.__dict__.update(state)
        self._cell_views()

    def _register(self, node: str) -> int:
        node_id = len(self._node_id)
        if node_id == self._ts.shape[1]:
            self._grow(max(4, 2 * node_id))
        self._node_id[node] = node_id
        self._head.append(0)
        self._count.append(0)
        self._newest.append(-math.inf)
        return node_id

    def push(self, node: str, timestamp: float, values: np.ndarray) -> bool:
        """Buffer one announcement; returns True when it was accepted.

        *values* is the node's full length-33 metric vector.  This is
        the per-announcement hot path: one dict lookup, the
        late/duplicate checks, one slice write of the values and one
        item write of the timestamp into flat memoryviews of the store
        — no Python object is created for the announcement.  A float64
        vector the buffer protocol copies directly (contiguous, strided
        or read-only) takes that write; any other accepted form (a
        list, another dtype or byte order) is cast by NumPy, so the
        stored bits are the same either way.  An announcement with a
        NaN or infinite timestamp, or a *values* vector of any other
        length (a scalar included), is dropped as ``invalid`` (counted
        in :attr:`IngestStats.invalid` and under
        ``ingest.announcements.dropped{reason="invalid"}``) and leaves
        the plane's timeline untouched.  A NaN or infinite metric value
        is not checked here: such a row is accepted (``push`` returns
        True) and the drain that reaches it drops and counts it as
        invalid, so it never reaches a classifier.  While observability is
        on, each accepted announcement also mints a request-trace id and
        stamps the registry clock into the store's trace columns, so
        the trace survives the ring boundary without carrying any
        object.  An empty slot's trace columns hold 0, so an untraced
        push writes them only when it overwrites a full ring's head.
        """
        self._received += 1
        observed = obs_enabled()
        if observed:
            obs_get(_RECEIVED).inc()
        timestamp = float(timestamp)
        if self._allow is not None and node not in self._allow:
            self._filtered += 1
            return self._dropped("filtered", observed)
        if not math.isfinite(timestamp):
            return self._drop_invalid(observed)
        node_id = self._node_id.get(node)
        if node_id is None:
            node_id = self._register(node)
        newest = self._newest[node_id]
        if timestamp == newest:
            self._duplicates += 1
            return self._dropped("duplicate", observed)
        late = timestamp <= self._frontier
        if late and self.late_policy == "drop":
            self._late_dropped += 1
            return self._dropped("late", observed)
        try:
            sized = len(values) == NUM_METRICS
        except TypeError:  # a scalar has no length
            sized = False
        if not sized:
            # The slot write would broadcast a scalar or a length-1
            # vector over the row.
            return self._drop_invalid(observed)
        if observed:
            registry = obs_get_registry()
            trace_id = registry.next_trace_id()
            enqueued_s = registry.clock()
        count = self._count[node_id]
        head = self._head[node_id]
        capacity = self.capacity
        full = count == capacity
        # Drop-oldest: a full ring overwrites its head slot.
        slot = head if full else head + count
        if slot >= capacity:
            slot -= capacity
        cell = slot * self._columns + node_id
        first = cell * NUM_METRICS
        try:
            self._vals_cells[first : first + NUM_METRICS] = values
        except (TypeError, ValueError, BufferError):
            # Not a float64 vector in native byte order: NumPy casts
            # it, and any other shape fails before anything is buffered.
            try:
                self._vals[slot, node_id] = values
            except ValueError:
                return self._drop_invalid(observed)
        self._ts_cells[cell] = timestamp
        if observed:
            self._tid_cells[cell] = trace_id
            self._enq_cells[cell] = enqueued_s
        elif full:
            # The overwritten head may hold a traced row.
            self._tid_cells[cell] = 0
            self._enq_cells[cell] = 0.0
        if slot >= self._written:
            self._written = slot + 1
        if full:
            head += 1
            self._head[node_id] = 0 if head == capacity else head
            self._overflowed += 1
            if observed:
                obs_get(_DROPPED["overflow"]).inc()
        else:
            self._count[node_id] = count + 1
        if timestamp < newest:
            self._unordered.add(node_id)
        else:
            self._newest[node_id] = timestamp
        if late:
            self._late_accepted += 1
            if observed:
                obs_get(_LATE).inc()
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        return True

    def _dropped(self, reason: str, observed: bool) -> bool:
        """Count one drop under *reason* while obs is on; returns False for push."""
        if observed:
            obs_get(_DROPPED[reason]).inc()
        return False

    def _drop_invalid(self, observed: bool) -> bool:
        """Count one announcement dropped as invalid; returns False for push."""
        self._invalid += 1
        return self._dropped("invalid", observed)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Largest timestamp a drain may emit: newest seen − ``lateness_s``."""
        return self._max_seen - self.lateness_s

    @property
    def frontier(self) -> float:
        """Largest timestamp already emitted (−inf before the first drain)."""
        return self._frontier

    @property
    def buffered(self) -> int:
        """Announcements currently buffered, across all nodes."""
        return sum(self._count)

    @property
    def node_names(self) -> tuple[str, ...]:
        """Known nodes in registration order (``DrainBatch.node_ids`` indexes this)."""
        return tuple(self._node_id)

    def occupancy(self) -> dict[str, float]:
        """Per-node ring fill fraction (the occupancy gauge values)."""
        return {node: count / self.capacity for node, count in zip(self._node_id, self._count)}

    def stats(self) -> IngestStats:
        """Snapshot of the plane's lifetime accounting."""
        return IngestStats(
            received=self._received,
            filtered=self._filtered,
            invalid=self._invalid,
            late_accepted=self._late_accepted,
            late_dropped=self._late_dropped,
            duplicates=self._duplicates,
            overflowed=self._overflowed,
            drains=self._drains,
            drained_rows=self._drained_rows,
            buffered=self.buffered,
        )

    def _restore_order(self) -> None:
        """Re-sort each out-of-order node's ring chronologically, once and stably.

        The ring is rewritten linearized at slot 0; equal timestamps
        keep their arrival order.  The slots it vacates get the empty
        slot's +inf timestamp and zero trace columns.
        """
        for node_id in self._unordered:
            count = self._count[node_id]
            slots = (self._head[node_id] + np.arange(count)) % self.capacity
            order = slots[np.argsort(self._ts[slots, node_id], kind="stable")]
            for column in (self._ts, self._vals, self._tid, self._enq):
                column[:count, node_id] = column[order, node_id]
            vacated = slots[slots >= count]
            self._ts[vacated, node_id] = np.inf
            self._tid[vacated, node_id] = 0
            self._enq[vacated, node_id] = 0.0
            self._head[node_id] = 0
        self._unordered.clear()

    def drain(self, max_rows: int | None = None, *, flush: bool = False) -> DrainBatch:
        """Gather and merge every drainable announcement into one batch.

        Emits all buffered rows with ``timestamp <= watermark`` (all
        buffered rows when *flush* is true — the shutdown path that
        ignores the lateness hold-back), chronologically merged across
        nodes with stable node-order tie-breaks.  With *max_rows*, the
        merged timeline is cut after the first *max_rows* rows; the
        remainder stays buffered for the next drain.  Rows with a NaN or
        infinite metric value are consumed but not emitted: they are
        counted as invalid, so a batch can be shorter than the rows its
        drain consumed (even empty, with rows still buffered).

        Returns a :class:`DrainBatch` of views into reused buffers —
        valid until the next drain.
        """
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be positive")
        timed = obs_enabled()
        t0 = time.perf_counter() if timed else 0.0
        watermark = np.inf if flush else self.watermark
        self._restore_order()
        counts = np.array(self._count, dtype=np.intp)
        heads = np.array(self._head, dtype=np.intp)
        # Every ring is sorted, so its drainable rows are a prefix; an
        # empty slot holds +inf and never passes a finite watermark.
        if flush:
            pending = counts
        else:
            window = (heads[:, None] + np.arange(counts.max(initial=0))) % self.capacity
            columns = np.arange(counts.shape[0])[:, None]
            pending = np.count_nonzero(self._ts[window, columns] <= watermark, axis=1)
        total = int(pending.sum())
        if total:
            node_of = np.repeat(np.arange(pending.shape[0]), pending)
            rank = np.arange(total) - (np.cumsum(pending) - pending)[node_of]
            flat = (heads[node_of] + rank) % self.capacity * self._ts.shape[1] + node_of
            timestamps = self._ts.reshape(-1)[flat]
            order = stable_merge_order(timestamps)
            if max_rows is not None and total > max_rows:
                # Each ring's rows are sorted, so the cut keeps a prefix
                # of every ring.
                order = order[:max_rows]
                pending = np.bincount(node_of[order], minlength=pending.shape[0])
                total = max_rows
            flat = flat[order]
            np.take(timestamps, order, out=self._out_ts[:total])
            np.take(node_of, order, out=self._out_nodes[:total])
            np.take(self._vals.reshape(-1, NUM_METRICS), flat, axis=0, out=self._out_vals[:total])
            np.take(self._tid.reshape(-1), flat, out=self._out_tid[:total])
            np.take(self._enq.reshape(-1), flat, out=self._out_enq[:total])
            # Empty the drained slots: +inf timestamps, zero trace columns.
            self._ts.reshape(-1)[flat] = np.inf
            self._tid.reshape(-1)[flat] = 0
            self._enq.reshape(-1)[flat] = 0.0
            remaining = counts - pending
            # An emptied ring restarts at slot 0, so a ring that never
            # holds more than k rows touches only its first k slots.
            self._head = np.where(remaining > 0, (heads + pending) % self.capacity, 0).tolist()
            self._count = remaining.tolist()
            total = self._drop_non_finite(total, timed)
        if total:
            self._frontier = max(self._frontier, float(self._out_ts[total - 1]))
            self._drains += 1
            self._drained_rows += total
        drained_s = obs_get_registry().clock() if timed and total else 0.0
        if timed:
            self._observe_drain(total, t0)
        return DrainBatch(
            nodes=self.node_names,
            node_ids=self._out_nodes[:total],
            timestamps=self._out_ts[:total],
            values=self._out_vals[:total],
            watermark=float(watermark),
            trace_ids=self._out_tid[:total],
            enqueued_s=self._out_enq[:total],
            drained_s=drained_s,
        )

    def _drop_non_finite(self, rows: int, observed: bool) -> int:
        """Drop the gathered rows with a NaN or infinite metric value; returns the rows kept.

        The kept rows are compacted in place, in merged order, and each
        dropped one is counted as invalid.
        """
        finite = np.isfinite(self._out_vals[:rows]).all(axis=1)
        kept = int(np.count_nonzero(finite))
        if kept < rows:
            self._invalid += rows - kept
            if observed:
                obs_get(_DROPPED["invalid"]).inc(float(rows - kept))
            for out in (self._out_ts, self._out_nodes, self._out_vals, self._out_tid, self._out_enq):
                out[:kept] = out[:rows][finite]
        return kept

    def _observe_drain(self, rows: int, t0: float) -> None:
        """Record drain telemetry (only called while obs is enabled)."""
        registry = obs_get_registry()
        registry.get(_DRAIN_ROWS).observe(float(rows))
        registry.get(_DRAIN_SECONDS).observe(time.perf_counter() - t0)
        occupancy = np.array(self._count) / self.capacity
        for node, value in zip(self._node_id, occupancy.tolist()):
            registry.get(_OCCUPANCY[node]).set(value)


def ingest_slo_rules() -> tuple[SloRule, ...]:
    """Monitor pack for the ingest plane.

    * ``ingest-overflow-rate`` — announcements lost to ring overflow per
      second (the consumer has fallen a full ring behind);
    * ``ingest-late-rate`` — late-but-accepted announcements per second
      (the lateness budget is too tight for the observed reordering);
    * ``ingest-ring-occupancy`` — worst per-node ring fill fraction
      (capacity-relative, so the thresholds hold for any ring size);
    * ``ingest-drain-p99-seconds`` — drain gather+merge p99 latency;
    * ``ingest-drain-to-classify-p99`` — p99 latency from a batch's
      drain to its batch compute (the request-trace attribution
      histogram covering the ingest→serve hand-off).
    """
    return (
        SloRule(
            name="ingest-overflow-rate",
            kind="counter_rate",
            metric="ingest.announcements.dropped",
            labels=(("reason", "overflow"),),
            warn=1.0,
            page=10.0,
        ),
        SloRule(
            name="ingest-late-rate",
            kind="counter_rate",
            metric="ingest.announcements.late",
            warn=1.0,
            page=10.0,
        ),
        SloRule(
            name="ingest-ring-occupancy",
            kind="gauge_threshold",
            metric="ingest.ring.occupancy",
            warn=0.75,
            page=0.95,
        ),
        SloRule(
            name="ingest-drain-p99-seconds",
            kind="histogram_quantile",
            metric="ingest.drain.seconds",
            warn=0.05,
            page=0.5,
            quantile=0.99,
        ),
        SloRule(
            name="ingest-drain-to-classify-p99",
            kind="histogram_quantile",
            metric="ingest.drain_to_classify.seconds",
            warn=0.1,
            page=1.0,
            quantile=0.99,
        ),
    )
