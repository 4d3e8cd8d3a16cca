"""Per-node announcement ring: wraparound, overflow, lazy re-ordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import AnnouncementRing, DEFAULT_RING_CAPACITY
from repro.metrics.catalog import NUM_METRICS


def row(fill: float) -> np.ndarray:
    return np.full(NUM_METRICS, fill, dtype=np.float64)


def drain_all(ring: AnnouncementRing) -> tuple[np.ndarray, np.ndarray]:
    n = ring.pending_until(np.inf)
    ts = np.empty(n)
    vals = np.empty((n, NUM_METRICS))
    ring.drain_into(n, ts, vals)
    return ts, vals


class TestBasics:
    def test_starts_empty_with_preallocated_storage(self):
        ring = AnnouncementRing("node00")
        assert len(ring) == 0
        assert ring.capacity == DEFAULT_RING_CAPACITY
        assert ring.timestamps.shape == (DEFAULT_RING_CAPACITY,)
        assert ring.values.shape == (DEFAULT_RING_CAPACITY, NUM_METRICS)
        assert ring.occupancy() == 0.0

    def test_push_and_drain_round_trip(self):
        ring = AnnouncementRing("n", capacity=8)
        for i in range(5):
            assert ring.push(float(i), row(i)) is True
        assert len(ring) == 5
        assert ring.occupancy() == pytest.approx(5 / 8)
        ts, vals = drain_all(ring)
        assert ts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert vals[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(ring) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AnnouncementRing("n", capacity=0)


class TestWraparound:
    def test_drain_after_wraparound_preserves_order(self):
        ring = AnnouncementRing("n", capacity=4)
        for i in range(4):
            ring.push(float(i), row(i))
        ts = np.empty(2)
        vals = np.empty((2, NUM_METRICS))
        ring.drain_into(2, ts, vals)
        assert ts.tolist() == [0.0, 1.0]
        # These two land in the freed slots at the physical front.
        ring.push(4.0, row(4))
        ring.push(5.0, row(5))
        ts, vals = drain_all(ring)
        assert ts.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert vals[:, -1].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert ring.overflowed == 0

    def test_many_wraparound_cycles(self):
        ring = AnnouncementRing("n", capacity=3)
        t = 0.0
        for _ in range(7):
            ring.push(t, row(t))
            t += 1.0
            ring.push(t, row(t))
            t += 1.0
            ts, _ = drain_all(ring)
            assert ts.tolist() == [t - 2.0, t - 1.0]
        assert ring.pushed == 14
        assert ring.overflowed == 0


class TestOverflow:
    def test_overflow_drops_oldest_and_counts(self):
        ring = AnnouncementRing("n", capacity=3)
        assert ring.push(0.0, row(0)) is True
        assert ring.push(1.0, row(1)) is True
        assert ring.push(2.0, row(2)) is True
        assert ring.push(3.0, row(3)) is False
        assert ring.push(4.0, row(4)) is False
        assert ring.overflowed == 2
        assert ring.pushed == 5
        assert len(ring) == 3
        ts, _ = drain_all(ring)
        assert ts.tolist() == [2.0, 3.0, 4.0], "the freshest entries survive"

    def test_accounting_balances(self):
        ring = AnnouncementRing("n", capacity=4)
        for i in range(11):
            ring.push(float(i), row(i))
        assert ring.pushed - ring.overflowed == len(ring)  # nothing drained yet
        ts, _ = drain_all(ring)
        assert ts.shape[0] == 4


class TestFailedPush:
    @pytest.mark.parametrize("capacity", [4, 2])
    def test_wrong_length_push_leaves_the_ring_untouched(self, capacity):
        ring = AnnouncementRing("n", capacity=capacity)
        ring.push(1.0, row(1.0))
        ring.push(2.0, row(2.0))
        timestamps = ring.timestamps.copy()
        state = (len(ring), ring.pushed, ring.overflowed, ring.newest_timestamp)
        with pytest.raises(ValueError):
            ring.push(3.0, np.ones(NUM_METRICS - 1))
        assert np.array_equal(ring.timestamps, timestamps)
        assert (len(ring), ring.pushed, ring.overflowed, ring.newest_timestamp) == state
        ts, vals = drain_all(ring)
        assert ts.tolist() == [1.0, 2.0]
        assert vals[:, 0].tolist() == [1.0, 2.0]


class TestOutOfOrder:
    def test_out_of_order_push_restored_at_drain(self):
        ring = AnnouncementRing("n", capacity=8)
        for t in (1.0, 3.0, 2.0, 5.0, 4.0):
            ring.push(t, row(t))
        ts, vals = drain_all(ring)
        assert ts.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert vals[:, 3].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0], "rows move with timestamps"

    def test_equal_timestamps_keep_arrival_order(self):
        ring = AnnouncementRing("n", capacity=8)
        ring.push(2.0, row(10))
        ring.push(1.0, row(20))
        ring.push(1.0, row(21))
        ts, vals = drain_all(ring)
        assert ts.tolist() == [1.0, 1.0, 2.0]
        assert vals[:, 0].tolist() == [20.0, 21.0, 10.0], "stable sort keeps arrival order"

    def test_restore_order_after_wraparound(self):
        ring = AnnouncementRing("n", capacity=4)
        for t in (0.0, 1.0, 2.0, 3.0):
            ring.push(t, row(t))
        ts = np.empty(3)
        vals = np.empty((3, NUM_METRICS))
        ring.drain_into(3, ts, vals)
        ring.push(5.0, row(5))
        ring.push(4.0, row(4))  # out of order, wrapped region
        ts, _ = drain_all(ring)
        assert ts.tolist() == [3.0, 4.0, 5.0]


class TestWatermark:
    def test_pending_until_cuts_at_watermark(self):
        ring = AnnouncementRing("n", capacity=8)
        for t in (1.0, 2.0, 3.0, 4.0):
            ring.push(t, row(t))
        assert ring.pending_until(0.5) == 0
        assert ring.pending_until(2.0) == 2, "watermark is inclusive"
        assert ring.pending_until(3.5) == 3
        assert ring.pending_until(np.inf) == 4

    def test_pending_until_spanning_the_wrap(self):
        ring = AnnouncementRing("n", capacity=4)
        for t in (0.0, 1.0, 2.0, 3.0):
            ring.push(t, row(t))
        ts = np.empty(2)
        vals = np.empty((2, NUM_METRICS))
        ring.drain_into(2, ts, vals)
        ring.push(4.0, row(4))
        ring.push(5.0, row(5))  # physically wrapped
        assert ring.pending_until(4.5) == 3

    def test_peek_does_not_consume(self):
        ring = AnnouncementRing("n", capacity=4)
        for t in (1.0, 2.0, 3.0):
            ring.push(t, row(t))
        ring.pending_until(np.inf)
        out = np.empty(4)
        ring.peek_timestamps_into(3, out)
        assert out[:3].tolist() == [1.0, 2.0, 3.0]
        assert len(ring) == 3
