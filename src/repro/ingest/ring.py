"""Per-node announcement ring buffers (preallocated, zero-object).

One :class:`AnnouncementRing` holds the buffered-but-undrained
announcements of a single node in two preallocated NumPy arrays — a
``(capacity,)`` timestamp vector and a ``(capacity, 33)`` value matrix —
so the ingest hot path never creates a Python object per announcement.
The ring is the producer half of :mod:`repro.ingest`: gmond
announcements land here at heartbeat rate, and the
:class:`~repro.ingest.plane.IngestPlane` drains contiguous
chronological prefixes into batch buffers for vectorized
classification.

Overflow policy is drop-oldest: a push into a full ring overwrites the
oldest buffered announcement and counts it in
:attr:`AnnouncementRing.overflowed` — the consumer is behind, and the
freshest telemetry is worth more than the stalest.  Out-of-order pushes
(a timestamp older than the newest buffered one) are accepted and the
ring restores chronological order lazily at the next drain, so the
in-order fast path stays sort-free.
"""

from __future__ import annotations

import numpy as np

from ..metrics.catalog import NUM_METRICS

#: Default per-node ring capacity.  At the paper's 5-second heartbeat
#: this buffers well over an hour of one node's announcements.
DEFAULT_RING_CAPACITY: int = 1024

__all__ = ["AnnouncementRing", "DEFAULT_RING_CAPACITY"]


class AnnouncementRing:
    """Fixed-capacity ring of one node's announcements.

    dtype: float64

    Storage is preallocated at construction: raw announcements are
    always float64 (the wire format of
    :class:`~repro.monitoring.multicast.MetricAnnouncement`), and any
    compute-dtype cast happens downstream at the drain gather, exactly
    like the batched serving kernel.

    Parameters
    ----------
    node:
        Node identity this ring buffers for.
    capacity:
        Maximum buffered announcements; a push beyond it drops the
        oldest entry (counted in :attr:`overflowed`).
    """

    def __init__(self, node: str, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.node = node
        self.capacity = int(capacity)
        self.timestamps = np.empty(self.capacity, dtype=np.float64)
        self.values = np.empty((self.capacity, NUM_METRICS), dtype=np.float64)
        # Request-trace carriage: trace id and enqueue clock reading per
        # buffered announcement (0 / 0.0 when tracing is off).  Parallel
        # arrays, not objects — the zero-object invariant holds.
        self.trace_ids = np.zeros(self.capacity, dtype=np.int64)
        self.enqueued_s = np.zeros(self.capacity, dtype=np.float64)
        self._start = 0
        self._count = 0
        #: Lifetime announcements accepted into the ring.
        self.pushed = 0
        #: Lifetime announcements lost to overflow (oldest overwritten).
        self.overflowed = 0
        #: Newest timestamp ever pushed (−inf before the first push).
        self.newest_timestamp = -np.inf
        self._ordered = True

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def push(
        self,
        timestamp: float,
        values: np.ndarray,
        trace_id: int = 0,
        enqueued_s: float = 0.0,
    ) -> bool:
        """Buffer one announcement; returns False when an old entry was dropped.

        *values* must be the node's full length-33 metric vector.  Any
        other length fails the row assignment with NumPy's
        ``ValueError`` before anything else is written, so a failed push
        leaves the ring's entries, counters and newest timestamp as they
        were.  (A scalar or a length-1 vector broadcasts over the row
        and is not caught: there is no shape check on this hot path.
        :meth:`IngestPlane.push <repro.ingest.plane.IngestPlane.push>`
        drops both before they get here.)
        A timestamp older than
        the newest buffered one is accepted — the ring re-sorts lazily
        on the next ordered read — so bounded network reordering never
        loses data at this layer.  *trace_id*/*enqueued_s* ride along in
        parallel arrays so a request trace survives the ring boundary.
        """
        dropped = self._count == self.capacity
        # Drop-oldest: a full ring overwrites its head slot.
        slot = self._start if dropped else (self._start + self._count) % self.capacity
        self.values[slot] = values
        if dropped:
            self._start = (self._start + 1) % self.capacity
            self._count -= 1
            self.overflowed += 1
        self.timestamps[slot] = timestamp
        self.trace_ids[slot] = trace_id
        self.enqueued_s[slot] = enqueued_s
        self._count += 1
        self.pushed += 1
        if timestamp < self.newest_timestamp:
            self._ordered = False
        else:
            self.newest_timestamp = timestamp
        return not dropped

    def __len__(self) -> int:
        """Announcements currently buffered (pushed, not yet drained)."""
        return self._count

    def occupancy(self) -> float:
        """Fill fraction in ``[0, 1]`` — the ring-pressure gauge value."""
        return self._count / self.capacity

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _logical_indices(self) -> np.ndarray:
        """Physical slot index of each buffered entry, oldest first.

        Returns an ``(len(self),)`` int array of positions into the
        preallocated storage rows.
        """
        idx = np.arange(self._start, self._start + self._count)
        if self._start + self._count > self.capacity:
            idx %= self.capacity
        return idx

    def restore_order(self) -> None:
        """Re-sort the buffered entries chronologically (stable) if needed.

        No-op on the in-order fast path.  After out-of-order pushes the
        valid region is rewritten, linearized at slot 0, in stable
        timestamp order — equal timestamps keep their arrival order.
        """
        if self._ordered or self._count <= 1:
            self._ordered = True
            return
        idx = self._logical_indices()
        order = idx[np.argsort(self.timestamps[idx], kind="stable")]
        self.timestamps[: self._count] = self.timestamps[order]
        self.values[: self._count] = self.values[order]
        self.trace_ids[: self._count] = self.trace_ids[order]
        self.enqueued_s[: self._count] = self.enqueued_s[order]
        self._start = 0
        self._ordered = True

    def pending_until(self, watermark: float) -> int:
        """Buffered announcements with ``timestamp <= watermark``.

        Restores chronological order first, so the result is the length
        of the drainable prefix.
        """
        self.restore_order()
        if self._count == 0:
            return 0
        first = min(self.capacity - self._start, self._count)
        head = self.timestamps[self._start : self._start + first]
        n = int(np.searchsorted(head, watermark, side="right"))
        if n == first and self._count > first:
            tail = self.timestamps[: self._count - first]
            n += int(np.searchsorted(tail, watermark, side="right"))
        return n

    def peek_timestamps_into(self, n: int, out: np.ndarray) -> None:
        """Copy the oldest *n* timestamps into ``out[:n]`` without consuming.

        Requires chronological order (call :meth:`pending_until` first);
        *n* must not exceed ``len(self)``.
        """
        first = min(self.capacity - self._start, n)
        out[:first] = self.timestamps[self._start : self._start + first]
        if n > first:
            out[first:n] = self.timestamps[: n - first]

    def drain_into(
        self,
        n: int,
        ts_out: np.ndarray,
        val_out: np.ndarray,
        trace_out: np.ndarray | None = None,
        enq_out: np.ndarray | None = None,
    ) -> None:
        """Move the oldest *n* entries into ``ts_out[:n]`` / ``val_out[:n]``.

        The gather is two contiguous block copies into the caller's
        preallocated batch buffers (one buffer per drain, no per-node
        temporaries); the entries are consumed from the ring.
        *n* must not exceed ``len(self)`` and the ring must be ordered.
        Pass *trace_out*/*enq_out* to carry the trace columns along
        (consumed either way).
        """
        if n == 0:
            return
        first = min(self.capacity - self._start, n)
        ts_out[:first] = self.timestamps[self._start : self._start + first]
        val_out[:first] = self.values[self._start : self._start + first]
        if trace_out is not None:
            trace_out[:first] = self.trace_ids[self._start : self._start + first]
        if enq_out is not None:
            enq_out[:first] = self.enqueued_s[self._start : self._start + first]
        if n > first:
            ts_out[first:n] = self.timestamps[: n - first]
            val_out[first:n] = self.values[: n - first]
            if trace_out is not None:
                trace_out[first:n] = self.trace_ids[: n - first]
            if enq_out is not None:
                enq_out[first:n] = self.enqueued_s[: n - first]
        self._start = (self._start + n) % self.capacity
        self._count -= n
