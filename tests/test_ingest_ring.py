"""Per-node rings of the ingest store: wraparound, overflow, lazy re-ordering.

Every case drives the store through ``IngestPlane``'s public API only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import DEFAULT_RING_CAPACITY, IngestPlane
from repro.metrics.catalog import NUM_METRICS


def row(fill: float) -> np.ndarray:
    return np.full(NUM_METRICS, fill, dtype=np.float64)


def push_all(plane: IngestPlane, timestamps, node: str = "n") -> list[bool]:
    return [plane.push(node, t, row(t)) for t in timestamps]


def drain_all(plane: IngestPlane) -> tuple[np.ndarray, np.ndarray]:
    batch = plane.drain(flush=True)
    return batch.timestamps.copy(), batch.values.copy()


class TestBasics:
    def test_starts_empty_with_preallocated_storage(self):
        plane = IngestPlane(nodes=["node00"])
        assert plane.capacity == DEFAULT_RING_CAPACITY
        assert plane.buffered == 0
        assert plane.occupancy() == {"node00": 0.0}
        assert len(plane.drain(flush=True)) == 0

    def test_push_and_drain_round_trip(self):
        plane = IngestPlane(capacity=8)
        assert push_all(plane, [0.0, 1.0, 2.0, 3.0, 4.0]) == [True] * 5
        assert plane.buffered == 5
        assert plane.occupancy() == {"n": pytest.approx(5 / 8)}
        ts, vals = drain_all(plane)
        assert ts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert vals[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert plane.buffered == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            IngestPlane(capacity=0)


class TestWraparound:
    def test_drain_after_wraparound_preserves_order(self):
        plane = IngestPlane(capacity=4)
        push_all(plane, [0.0, 1.0, 2.0, 3.0])
        assert plane.drain(2).timestamps.tolist() == [0.0, 1.0]
        # These two land in the freed slots at the physical front.
        push_all(plane, [4.0, 5.0])
        ts, vals = drain_all(plane)
        assert ts.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert vals[:, -1].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert plane.stats().overflowed == 0

    def test_many_wraparound_cycles(self):
        plane = IngestPlane(capacity=3)
        push_all(plane, [0.0])
        t = 1.0
        for _ in range(7):
            # One row stays buffered, so the ring's head keeps moving
            # round the three slots.
            push_all(plane, [t, t + 1.0])
            t += 2.0
            assert plane.drain(2).timestamps.tolist() == [t - 3.0, t - 2.0]
            assert plane.buffered == 1
        stats = plane.stats()
        assert stats.received == 15
        assert stats.drained_rows == 14
        assert stats.overflowed == 0
        assert drain_all(plane)[0].tolist() == [t - 1.0]


class TestOverflow:
    def test_overflow_drops_oldest_and_counts(self):
        plane = IngestPlane(capacity=3)
        # An overflowing push is still accepted: it evicts an older row.
        assert push_all(plane, [0.0, 1.0, 2.0, 3.0, 4.0]) == [True] * 5
        stats = plane.stats()
        assert stats.overflowed == 2
        assert stats.received == 5
        assert plane.buffered == 3
        assert plane.occupancy() == {"n": 1.0}
        ts, _ = drain_all(plane)
        assert ts.tolist() == [2.0, 3.0, 4.0], "the freshest entries survive"

    def test_accounting_balances(self):
        plane = IngestPlane(capacity=4)
        push_all(plane, [float(i) for i in range(11)])
        stats = plane.stats()
        assert stats.received - stats.overflowed == plane.buffered  # nothing drained yet
        ts, _ = drain_all(plane)
        assert ts.shape[0] == 4
        assert plane.stats().drained_rows == 4


class TestFailedPush:
    @pytest.mark.parametrize("capacity", [4, 2])
    def test_wrong_length_push_leaves_the_ring_untouched(self, capacity):
        plane = IngestPlane(capacity=capacity)
        push_all(plane, [1.0, 2.0])
        before = (plane.buffered, plane.occupancy(), plane.watermark, plane.stats().overflowed)
        assert plane.push("n", 3.0, np.ones(NUM_METRICS - 1)) is False
        assert (plane.buffered, plane.occupancy(), plane.watermark, plane.stats().overflowed) == before
        # The node's newest timestamp is still 2.0: a repeat is a duplicate.
        assert plane.push("n", 2.0, row(2.0)) is False
        assert plane.stats().duplicates == 1
        ts, vals = drain_all(plane)
        assert ts.tolist() == [1.0, 2.0]
        assert vals[:, 0].tolist() == [1.0, 2.0]


class TestOutOfOrder:
    def test_out_of_order_push_restored_at_drain(self):
        plane = IngestPlane(capacity=8)
        push_all(plane, [1.0, 3.0, 2.0, 5.0, 4.0])
        ts, vals = drain_all(plane)
        assert ts.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert vals[:, 3].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0], "rows move with timestamps"

    def test_equal_timestamps_keep_arrival_order(self):
        plane = IngestPlane(capacity=8)
        plane.push("n", 2.0, row(10))
        plane.push("n", 1.0, row(20))
        plane.push("n", 1.0, row(21))  # not the newest timestamp, so not a duplicate
        ts, vals = drain_all(plane)
        assert ts.tolist() == [1.0, 1.0, 2.0]
        assert vals[:, 0].tolist() == [20.0, 21.0, 10.0], "stable sort keeps arrival order"

    def test_out_of_order_restored_after_wraparound(self):
        plane = IngestPlane(capacity=4)
        push_all(plane, [0.0, 1.0, 2.0, 3.0])
        assert plane.drain(3).timestamps.tolist() == [0.0, 1.0, 2.0]
        push_all(plane, [5.0, 4.0])  # out of order, wrapped region
        ts, vals = drain_all(plane)
        assert ts.tolist() == [3.0, 4.0, 5.0]
        assert vals[:, 0].tolist() == [3.0, 4.0, 5.0]


class TestWatermark:
    def test_watermark_cut_is_inclusive(self):
        for lateness, expected in ((3.5, []), (2.0, [1.0, 2.0]), (0.5, [1.0, 2.0, 3.0])):
            plane = IngestPlane(capacity=8, lateness_s=lateness)
            push_all(plane, [1.0, 2.0, 3.0, 4.0])
            assert plane.drain().timestamps.tolist() == expected, "watermark is inclusive"
            assert plane.buffered == 4 - len(expected)

    def test_watermark_cut_spanning_the_wrap(self):
        plane = IngestPlane(capacity=4, lateness_s=0.5)
        push_all(plane, [0.0, 1.0, 2.0, 3.0])
        assert plane.drain(2).timestamps.tolist() == [0.0, 1.0]
        push_all(plane, [4.0, 5.0])  # physically wrapped
        assert plane.watermark == 4.5
        assert plane.drain().timestamps.tolist() == [2.0, 3.0, 4.0]
        assert plane.buffered == 1

    def test_peek_does_not_consume(self):
        plane = IngestPlane(capacity=4, lateness_s=100.0)
        push_all(plane, [1.0, 2.0, 3.0])
        assert len(plane.drain()) == 0, "the watermark holds every row back"
        assert plane.buffered == 3
        assert plane.drain(2, flush=True).timestamps.tolist() == [1.0, 2.0]
        assert plane.buffered == 1, "a max_rows cut consumes only the rows it emits"
        assert drain_all(plane)[0].tolist() == [3.0]
