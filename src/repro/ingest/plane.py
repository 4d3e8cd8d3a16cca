"""The ingest plane: rings in, merged chronological batches out.

:class:`IngestPlane` is the streaming buffer between the monitoring
substrate and the batched classification kernels.  Producers —
``gmond`` daemons announcing on the multicast channel, or anything
calling :meth:`IngestPlane.push` directly — land announcements in
per-node :class:`~repro.ingest.ring.AnnouncementRing`\\ s with no
per-announcement Python objects.  Consumers call
:meth:`IngestPlane.drain`, which gathers every ring's drainable prefix
into one preallocated batch buffer and merges it into the global
chronological timeline (:mod:`repro.ingest.timeline`), ready for a
single vectorized classify call.

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
    SloRule,
    counter as obs_counter,
    enabled as obs_enabled,
    event as obs_event,
    gauge as obs_gauge,
    get_registry as obs_get_registry,
    histogram as obs_histogram,
)
from .ring import AnnouncementRing, DEFAULT_RING_CAPACITY
from .timeline import stable_merge_order

#: Late-announcement policies: buffer for the next drain, or discard.
LATE_POLICIES = ("accept", "drop")

#: Drain-size histogram buckets (rows per drain).
DRAIN_ROWS_BUCKETS = (1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)

__all__ = [
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
    """Per-node ring buffers with watermarked, merged batch drains.

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
        self._rings: list[AnnouncementRing] = []
        self._ring_of: dict[str, AnnouncementRing] = {}
        self._node_id: dict[str, int] = {}
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
        self._drains = 0
        self._drained_rows = 0
        # Drain scratch + output buffers, preallocated lazily to the
        # fleet's total ring capacity and reused across drains (the
        # single-buffer gather pattern of the batched serve kernel).
        self._scratch_rows = 0
        self._peek_ts: np.ndarray | None = None
        self._batch_ts: np.ndarray | None = None
        self._batch_vals: np.ndarray | None = None
        self._batch_nodes: np.ndarray | None = None
        self._batch_tid: np.ndarray | None = None
        self._batch_enq: np.ndarray | None = None
        self._out_ts = np.empty(0, dtype=np.float64)
        self._out_vals = np.empty((0, NUM_METRICS), dtype=np.float64)
        self._out_nodes = np.empty(0, dtype=np.intp)
        self._out_tid = np.empty(0, dtype=np.int64)
        self._out_enq = np.empty(0, dtype=np.float64)
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
        obs_event("ingest.attach", nodes=str(len(self._rings)))

    def detach(self) -> None:
        """Unsubscribe from the channel; idempotent, tolerates torn-down channels."""
        if not self._attached:
            return
        self._attached = False
        obs_event("ingest.detach", nodes=str(len(self._rings)))
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
    def _register(self, node: str) -> AnnouncementRing:
        ring = AnnouncementRing(node, capacity=self.capacity)
        self._node_id[node] = len(self._rings)
        self._rings.append(ring)
        self._ring_of[node] = ring
        # A new ring invalidates the drain scratch sizing.
        self._scratch_rows = 0
        return ring

    def push(self, node: str, timestamp: float, values: np.ndarray) -> bool:
        """Buffer one announcement; returns True when it was accepted.

        *values* is the node's full length-33 metric vector.  This is
        the per-announcement hot path: one dict lookup, the
        late/duplicate checks, and two array-row writes — no Python
        object is created for the announcement.  An announcement with a
        NaN or infinite timestamp, or a *values* vector of any other
        length (a scalar included), is dropped as ``invalid`` (counted
        in :attr:`IngestStats.invalid` and under
        ``ingest.announcements.dropped{reason="invalid"}``) and leaves
        the plane's timeline untouched.  While observability is
        on, each accepted announcement also mints a request-trace id and
        stamps the registry clock into the ring's parallel trace
        columns, so the trace survives the ring boundary without
        carrying any object.
        """
        self._received += 1
        observed = obs_enabled()
        if observed:
            obs_counter(
                "ingest.announcements.received",
                help="Announcements offered to the ingest plane.",
            ).inc()
        timestamp = float(timestamp)
        if self._allow is not None and node not in self._allow:
            self._filtered += 1
            if observed:
                obs_counter(
                    "ingest.announcements.dropped",
                    help="Announcements the ingest plane discarded.",
                    reason="filtered",
                ).inc()
            return False
        if not math.isfinite(timestamp):
            return self._drop_invalid(observed)
        ring = self._ring_of.get(node)
        if ring is None:
            ring = self._register(node)
        if ring.pushed and timestamp == ring.newest_timestamp:
            self._duplicates += 1
            if observed:
                obs_counter(
                    "ingest.announcements.dropped",
                    help="Announcements the ingest plane discarded.",
                    reason="duplicate",
                ).inc()
            return False
        late = timestamp <= self._frontier
        if late and self.late_policy == "drop":
            self._late_dropped += 1
            if observed:
                obs_counter(
                    "ingest.announcements.dropped",
                    help="Announcements the ingest plane discarded.",
                    reason="late",
                ).inc()
            return False
        try:
            sized = len(values) == NUM_METRICS
        except TypeError:  # a scalar has no length
            sized = False
        if not sized:
            # The ring's row write would broadcast a scalar or a
            # length-1 vector over the row.
            return self._drop_invalid(observed)
        trace_id = 0
        enqueued_s = 0.0
        if observed:
            registry = obs_get_registry()
            trace_id = registry.next_trace_id()
            enqueued_s = registry.clock()
        try:
            kept = ring.push(timestamp, values, trace_id, enqueued_s)
        except ValueError:
            # Any other shape fails the ring's row write before anything
            # is buffered.
            return self._drop_invalid(observed)
        if not kept and observed:
            obs_counter(
                "ingest.announcements.dropped",
                help="Announcements the ingest plane discarded.",
                reason="overflow",
            ).inc()
        if late:
            self._late_accepted += 1
            if observed:
                obs_counter(
                    "ingest.announcements.late",
                    help="Late announcements accepted behind the frontier.",
                ).inc()
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        return True

    def _drop_invalid(self, observed: bool) -> bool:
        """Count one announcement dropped as invalid; returns False for push."""
        self._invalid += 1
        if observed:
            obs_counter(
                "ingest.announcements.dropped",
                help="Announcements the ingest plane discarded.",
                reason="invalid",
            ).inc()
        return False

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
        """Announcements currently ringed, across all nodes."""
        return sum(len(ring) for ring in self._rings)

    @property
    def node_names(self) -> tuple[str, ...]:
        """Known nodes in registration order (``DrainBatch.node_ids`` indexes this)."""
        return tuple(ring.node for ring in self._rings)

    def occupancy(self) -> dict[str, float]:
        """Per-node ring fill fraction (the occupancy gauge values)."""
        return {ring.node: ring.occupancy() for ring in self._rings}

    def stats(self) -> IngestStats:
        """Snapshot of the plane's lifetime accounting."""
        return IngestStats(
            received=self._received,
            filtered=self._filtered,
            invalid=self._invalid,
            late_accepted=self._late_accepted,
            late_dropped=self._late_dropped,
            duplicates=self._duplicates,
            overflowed=sum(ring.overflowed for ring in self._rings),
            drains=self._drains,
            drained_rows=self._drained_rows,
            buffered=self.buffered,
        )

    def _ensure_buffers(self) -> None:
        """Size the drain scratch to the fleet's total ring capacity.

        Runs only when the ring set changed since the last drain; every
        steady-state drain reuses the same buffers.
        """
        need = sum(ring.capacity for ring in self._rings)
        if need <= self._scratch_rows:
            return
        self._peek_ts = np.empty(need, dtype=np.float64)
        self._batch_ts = np.empty(need, dtype=np.float64)
        self._batch_vals = np.empty((need, NUM_METRICS), dtype=np.float64)
        self._batch_nodes = np.empty(need, dtype=np.intp)
        self._batch_tid = np.empty(need, dtype=np.int64)
        self._batch_enq = np.empty(need, dtype=np.float64)
        self._out_ts = np.empty(need, dtype=np.float64)
        self._out_vals = np.empty((need, NUM_METRICS), dtype=np.float64)
        self._out_nodes = np.empty(need, dtype=np.intp)
        self._out_tid = np.empty(need, dtype=np.int64)
        self._out_enq = np.empty(need, dtype=np.float64)
        self._scratch_rows = need

    def drain(self, max_rows: int | None = None, *, flush: bool = False) -> DrainBatch:
        """Gather and merge every drainable announcement into one batch.

        Emits all buffered rows with ``timestamp <= watermark`` (all
        buffered rows when *flush* is true — the shutdown path that
        ignores the lateness hold-back), chronologically merged across
        nodes with stable node-order tie-breaks.  With *max_rows*, the
        merged timeline is cut after the first *max_rows* rows; the
        remainder stays buffered for the next drain.

        Returns a :class:`DrainBatch` of views into reused buffers —
        valid until the next drain.
        """
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be positive")
        timed = obs_enabled()
        t0 = time.perf_counter() if timed else 0.0
        watermark = np.inf if flush else self.watermark
        counts = [ring.pending_until(watermark) for ring in self._rings]
        total = sum(counts)
        if total == 0:
            if timed:
                self._observe_drain(0, t0)
            return DrainBatch(
                nodes=self.node_names,
                node_ids=self._out_nodes[:0],
                timestamps=self._out_ts[:0],
                values=self._out_vals[:0],
                watermark=float(watermark),
                trace_ids=self._out_tid[:0],
                enqueued_s=self._out_enq[:0],
            )
        self._ensure_buffers()
        if max_rows is not None and total > max_rows:
            # Peek phase: merge candidate timestamps without consuming,
            # cut the merged order, and count what each ring keeps.  A
            # ring's candidates are sorted, so the cut keeps a prefix of
            # each ring and the per-ring drain below stays contiguous.
            offset = 0
            for ring_id, ring in enumerate(self._rings):
                n = counts[ring_id]
                ring.peek_timestamps_into(n, self._peek_ts[offset:])
                self._batch_nodes[offset : offset + n] = ring_id
                offset += n
            order = stable_merge_order(self._peek_ts[:total])[:max_rows]
            taken = np.bincount(self._batch_nodes[order], minlength=len(self._rings))
            total = max_rows
        else:
            taken = counts
        offset = 0
        for ring_id, ring in enumerate(self._rings):
            n = int(taken[ring_id])
            ring.drain_into(
                n,
                self._batch_ts[offset:],
                self._batch_vals[offset:],
                self._batch_tid[offset:],
                self._batch_enq[offset:],
            )
            self._batch_nodes[offset : offset + n] = ring_id
            offset += n
        order = stable_merge_order(self._batch_ts[:total])
        np.take(self._batch_ts[:total], order, axis=0, out=self._out_ts[:total])
        np.take(self._batch_nodes[:total], order, axis=0, out=self._out_nodes[:total])
        np.take(self._batch_vals[:total], order, axis=0, out=self._out_vals[:total])
        np.take(self._batch_tid[:total], order, axis=0, out=self._out_tid[:total])
        np.take(self._batch_enq[:total], order, axis=0, out=self._out_enq[:total])
        self._frontier = max(self._frontier, float(self._out_ts[total - 1]))
        self._drains += 1
        self._drained_rows += total
        drained_s = obs_get_registry().clock() if timed else 0.0
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

    def _observe_drain(self, rows: int, t0: float) -> None:
        """Record drain telemetry (only called while obs is enabled)."""
        obs_histogram(
            "ingest.drain.rows",
            help="Announcements gathered per drain.",
            buckets=DRAIN_ROWS_BUCKETS,
        ).observe(float(rows))
        obs_histogram(
            "ingest.drain.seconds",
            help="Drain gather+merge latency.",
        ).observe(time.perf_counter() - t0)
        for ring in self._rings:
            obs_gauge(
                "ingest.ring.occupancy",
                help="Per-node ring fill fraction.",
                node=ring.node,
            ).set(ring.occupancy())


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
