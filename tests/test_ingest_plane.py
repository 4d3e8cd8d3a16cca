"""The ingest plane: watermarks, late/duplicate policy, merged drains."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.online import OnlineClassifier
from repro.ingest import IngestPlane, MetricAnnouncement, MulticastChannel, ingest_slo_rules, synthetic_fleet
from repro.metrics.catalog import NUM_METRICS


def ann(node: str, ts: float, fill: float = 1.0) -> MetricAnnouncement:
    return MetricAnnouncement(node=node, timestamp=ts, values=np.full(NUM_METRICS, fill))


class TestConstruction:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="capacity"):
            IngestPlane(capacity=0)
        with pytest.raises(ValueError, match="lateness"):
            IngestPlane(lateness_s=-1.0)
        with pytest.raises(ValueError, match="late_policy"):
            IngestPlane(late_policy="reorder")

    def test_attach_requires_channel(self):
        plane = IngestPlane()
        with pytest.raises(RuntimeError, match="no channel"):
            plane.attach()

    def test_attach_detach_idempotent(self):
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        assert plane.attached
        plane.attach()
        plane.detach()
        plane.detach()
        assert not plane.attached
        channel.announce(ann("a", 1.0))
        assert plane.buffered == 0, "detached planes ignore the channel"

    def test_preregistered_nodes_fix_node_ids(self):
        plane = IngestPlane(nodes=["a", "b"])
        assert plane.node_names == ("a", "b")
        plane.push("c", 1.0, np.ones(NUM_METRICS))
        assert plane.stats().filtered == 1
        assert plane.node_names == ("a", "b")


class TestDrainMerge:
    def test_merges_across_nodes_chronologically(self):
        plane = IngestPlane()
        plane.push("b", 2.0, np.full(NUM_METRICS, 20.0))
        plane.push("a", 1.0, np.full(NUM_METRICS, 10.0))
        plane.push("a", 3.0, np.full(NUM_METRICS, 30.0))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b", "a"]
        assert batch.values[:, 0].tolist() == [10.0, 20.0, 30.0]

    def test_ties_break_in_node_registration_order(self):
        plane = IngestPlane(nodes=["a", "b"])
        plane.push("b", 1.0, np.full(NUM_METRICS, 2.0))
        plane.push("a", 1.0, np.full(NUM_METRICS, 1.0))
        batch = plane.drain()
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b"]

    def test_empty_drain(self):
        plane = IngestPlane()
        batch = plane.drain()
        assert len(batch) == 0
        assert batch.timestamps.shape == (0,)
        assert batch.values.shape == (0, NUM_METRICS)
        assert plane.stats().drains == 0, "empty drains do not count as drains"

    def test_single_node(self):
        plane = IngestPlane()
        for t in (1.0, 2.0, 3.0):
            plane.push("only", t, np.full(NUM_METRICS, t))
        batch = plane.drain()
        assert len(batch) == 3
        assert batch.nodes == ("only",)
        assert batch.node_ids.tolist() == [0, 0, 0]

    def test_drain_consumes(self):
        plane = IngestPlane()
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        assert len(plane.drain()) == 1
        assert len(plane.drain()) == 0


class TestMaxRows:
    def test_truncation_keeps_remainder_buffered(self):
        plane = IngestPlane()
        for t in (1.0, 3.0, 5.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        for t in (2.0, 4.0, 6.0):
            plane.push("b", t, np.full(NUM_METRICS, t))
        first = plane.drain(4)
        assert first.timestamps.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert plane.buffered == 2
        second = plane.drain(4)
        assert second.timestamps.tolist() == [5.0, 6.0]
        assert plane.buffered == 0

    def test_truncated_sequence_equals_one_big_drain(self):
        rng = np.random.default_rng(3)

        def fill(plane):
            for node in ("a", "b", "c"):
                t = 0.0
                for _ in range(20):
                    t += float(rng.uniform(0.1, 2.0))
                    plane.push(node, t, np.full(NUM_METRICS, t))

        rng = np.random.default_rng(3)
        whole = IngestPlane()
        fill(whole)
        expected = whole.drain().timestamps.copy()

        rng = np.random.default_rng(3)
        chunked = IngestPlane()
        fill(chunked)
        got = []
        while True:
            batch = chunked.drain(7)
            if len(batch) == 0:
                break
            got.extend(batch.timestamps.tolist())
        assert got == expected.tolist()

    def test_invalid_max_rows(self):
        with pytest.raises(ValueError, match="max_rows"):
            IngestPlane().drain(0)


class TestWatermarkAndLateness:
    def test_lateness_holds_back_recent_rows(self):
        plane = IngestPlane(lateness_s=2.0)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        assert plane.watermark == 3.0
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0], "rows behind the watermark only"
        assert plane.buffered == 2

    def test_held_back_row_lands_in_correct_merged_position(self):
        plane = IngestPlane(lateness_s=2.0)
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        assert plane.drain().timestamps.tolist() == [1.0]
        # Out-of-order arrival within the lateness budget: ts=4 arrives
        # after ts=5 was seen but before the watermark passes it.
        plane.push("b", 4.0, np.ones(NUM_METRICS))
        plane.push("a", 7.0, np.ones(NUM_METRICS))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [4.0, 5.0]
        assert plane.stats().late_accepted == 0, "within-budget reordering is not late"

    def test_flush_ignores_lateness(self):
        plane = IngestPlane(lateness_s=100.0)
        for t in (1.0, 2.0, 3.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        assert len(plane.drain()) == 0
        batch = plane.drain(flush=True)
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert batch.watermark == np.inf

    def test_late_accept_emits_in_next_drain(self):
        plane = IngestPlane()
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        assert plane.drain().timestamps.tolist() == [5.0]
        assert plane.frontier == 5.0
        accepted = plane.push("a", 3.0, np.full(NUM_METRICS, 3.0))
        assert accepted is True
        stats = plane.stats()
        assert stats.late_accepted == 1
        assert stats.late_dropped == 0
        batch = plane.drain()
        assert batch.timestamps.tolist() == [3.0], "late row surfaces in a later drain"

    def test_late_drop_discards(self):
        plane = IngestPlane(late_policy="drop")
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        plane.drain()
        accepted = plane.push("a", 3.0, np.ones(NUM_METRICS))
        assert accepted is False
        stats = plane.stats()
        assert stats.late_dropped == 1
        assert plane.buffered == 0
        assert len(plane.drain()) == 0


class TestDropAccounting:
    def test_duplicate_timestamp_dropped(self):
        plane = IngestPlane()
        assert plane.push("a", 1.0, np.ones(NUM_METRICS)) is True
        assert plane.push("a", 1.0, np.ones(NUM_METRICS)) is False
        assert plane.stats().duplicates == 1
        assert plane.buffered == 1

    def test_filtered_node_dropped(self):
        plane = IngestPlane(nodes=["a"])
        assert plane.push("z", 1.0, np.ones(NUM_METRICS)) is False
        assert plane.stats().filtered == 1
        assert plane.buffered == 0

    def test_overflow_counted_in_stats(self):
        plane = IngestPlane(capacity=2)
        for t in (1.0, 2.0, 3.0, 4.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        stats = plane.stats()
        assert stats.overflowed == 2
        assert stats.received == 4
        assert plane.drain().timestamps.tolist() == [3.0, 4.0]

    def test_stats_snapshot_is_consistent(self):
        plane = IngestPlane(nodes=["a"])
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.push("a", 1.0, np.ones(NUM_METRICS))  # duplicate
        plane.push("z", 2.0, np.ones(NUM_METRICS))  # filtered
        plane.drain()
        plane.push("a", 0.5, np.ones(NUM_METRICS))  # late
        stats = plane.stats()
        assert stats.received == 4
        assert stats.duplicates == 1
        assert stats.filtered == 1
        assert stats.late_accepted == 1
        assert stats.drains == 1
        assert stats.drained_rows == 1
        assert stats.buffered == 1


class TestInvalidInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_dropped(self, bad):
        plane = IngestPlane()
        pushed = [plane.push("a", t, np.full(NUM_METRICS, t)) for t in (1.0, 2.0, bad, 3.0, 4.0)]
        assert pushed == [True, True, False, True, True]
        assert plane.stats().invalid == 1
        # The bad row neither holds back the watermark's rows nor comes
        # out at flush.
        batch = plane.drain()
        assert batch.watermark == 4.0
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert len(plane.drain(flush=True)) == 0

    @pytest.mark.parametrize("length", [0, NUM_METRICS - 1, NUM_METRICS + 1])
    def test_wrong_length_vector_dropped_without_touching_the_ring(self, length):
        plane = IngestPlane(capacity=2)
        plane.push("a", 1.0, np.full(NUM_METRICS, 1.0))
        plane.push("a", 2.0, np.full(NUM_METRICS, 2.0))
        before = (plane.buffered, plane.occupancy(), plane.watermark, plane.stats().overflowed)
        assert plane.push("a", 3.0, np.ones(length)) is False
        assert (plane.buffered, plane.occupancy(), plane.watermark, plane.stats().overflowed) == before
        stats = plane.stats()
        assert stats.invalid == 1
        assert stats.received == 3
        # The node's newest timestamp is still 2.0: a repeat is a duplicate.
        assert plane.push("a", 2.0, np.full(NUM_METRICS, 2.0)) is False
        assert plane.stats().duplicates == 1
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 2.0]
        assert batch.values[:, 0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("bad", [7.0, np.float64(7.0), np.array(7.0), np.ones(1)])
    def test_scalar_or_length_one_vector_dropped_not_broadcast(self, bad):
        plane = IngestPlane()
        plane.push("a", 1.0, np.full(NUM_METRICS, 1.0))
        assert plane.push("a", 2.0, bad) is False
        stats = plane.stats()
        assert stats.invalid == 1
        assert stats.received == 2
        batch = plane.drain(flush=True)
        assert batch.timestamps.tolist() == [1.0]
        assert batch.values[0].tolist() == [1.0] * NUM_METRICS

    def test_invalid_drops_are_counted_under_their_reason(self):
        registry = obs.enable()
        try:
            plane = IngestPlane()
            plane.push("a", np.nan, np.ones(NUM_METRICS))
            plane.push("a", 1.0, np.ones(3))
            dropped = registry.counter("ingest.announcements.dropped", reason="invalid")
            assert dropped.value == 2.0
        finally:
            obs.disable()

    @staticmethod
    def push_mixed_stream(plane):
        """Push one of every outcome into *plane*; return the accepted count."""
        good = np.ones(NUM_METRICS)
        stream = [
            ("a", 1.0, good),
            ("b", 1.0, good),
            ("a", 1.0, good),  # duplicate
            ("z", 2.0, good),  # filtered
            ("a", np.nan, good),  # invalid timestamp
            ("b", 2.0, np.ones(NUM_METRICS + 1)),  # invalid length
            ("a", 2.0, good),
            ("a", -np.inf, np.ones(2)),  # invalid both ways
            ("b", 3.0, good),
        ]
        accepted = sum(plane.push(*item) for item in stream)
        plane.drain()
        accepted += plane.push("a", 0.5, good)  # late, dropped
        accepted += sum(plane.push("b", 4.0 + t, good) for t in range(6))  # overflows
        return accepted

    def test_reasons_sum_to_received_over_a_mixed_stream(self):
        plane = IngestPlane(nodes=["a", "b"], capacity=4, late_policy="drop")
        accepted = self.push_mixed_stream(plane)
        stats = plane.stats()
        assert (stats.filtered, stats.invalid, stats.duplicates, stats.late_dropped) == (1, 3, 1, 1)
        assert stats.overflowed == 2
        dropped = stats.filtered + stats.invalid + stats.duplicates + stats.late_dropped
        assert accepted + dropped == stats.received == 16

    def test_received_counter_counts_every_offer(self):
        registry = obs.enable()
        try:
            plane = IngestPlane(nodes=["a", "b"], capacity=4, late_policy="drop")
            accepted = self.push_mixed_stream(plane)
            received = registry.counter("ingest.announcements.received").value
            dropped = sum(
                registry.counter("ingest.announcements.dropped", reason=reason).value
                for reason in ("filtered", "invalid", "duplicate", "late")
            )
        finally:
            obs.disable()
        assert received == plane.stats().received == 16
        # An overflow evicts an older, already accepted row, so it is
        # not an offer outcome and stays out of the sum.
        assert received == accepted + dropped


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_accepted_at_push_and_dropped_at_drain(self, bad):
        plane = IngestPlane()
        values = np.full(NUM_METRICS, 2.0)
        values[5] = bad
        pushed = [plane.push("a", 1.0, np.full(NUM_METRICS, 1.0)), plane.push("a", 2.0, values)]
        pushed.append(plane.push("b", 3.0, np.full(NUM_METRICS, 3.0)))
        assert pushed == [True, True, True], "push does not look at the values"
        assert plane.stats().invalid == 0
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 3.0]
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b"]
        assert np.isfinite(batch.values).all()
        stats = plane.stats()
        assert (stats.invalid, stats.drained_rows, stats.buffered) == (1, 2, 0)
        assert plane.frontier == 3.0

    def test_a_window_of_only_invalid_rows_is_consumed_but_not_emitted(self):
        registry = obs.enable()
        try:
            plane = IngestPlane()
            plane.push("a", 1.0, np.full(NUM_METRICS, np.nan))
            plane.push("a", 2.0, np.full(NUM_METRICS, 2.0))
            batch = plane.drain(1)
            assert len(batch) == 0
            assert plane.buffered == 1
            assert plane.frontier == -np.inf, "a dropped row does not advance the frontier"
            stats = plane.stats()
            assert (stats.invalid, stats.drains, stats.drained_rows) == (1, 0, 0)
            assert registry.counter("ingest.announcements.dropped", reason="invalid").value == 1.0
            assert plane.drain().timestamps.tolist() == [2.0]
        finally:
            obs.disable()

    def test_one_nan_node_leaves_the_other_nodes_codes_as_in_a_clean_run(self, classifier):
        fleet = synthetic_fleet(3, 8, seed=11)

        def pump(poisoned: str | None):
            plane = IngestPlane()
            online = OnlineClassifier(classifier, plane)
            for announcement in fleet:
                values = announcement.values
                if announcement.node == poisoned:
                    values = values.copy()
                    values[0] = np.nan
                plane.push(announcement.node, announcement.timestamp, values)
            return online.pump(flush=True), plane

        clean, _ = pump(None)
        nodes = clean.nodes
        dirty, plane = pump(nodes[1])
        assert plane.stats().invalid == 8
        assert dirty.codes_for(nodes[1]).shape == (0,)
        for node in (nodes[0], nodes[2]):
            assert np.array_equal(dirty.codes_for(node), clean.codes_for(node))


class TestCachedInstruments:
    @staticmethod
    def push_stream(plane: IngestPlane) -> None:
        good = np.ones(NUM_METRICS)
        plane.push("a", 1.0, good)
        plane.push("a", 1.0, good)  # duplicate
        plane.push("z", 1.0, good)  # filtered
        plane.push("b", 2.0, good)
        plane.push("b", 3.0, good)  # overflows b's 1-slot ring

    #: What push_stream counts, keyed by (name, labels).
    EXPECTED = {
        ("ingest.announcements.received", ()): 5.0,
        ("ingest.announcements.dropped", (("reason", "duplicate"),)): 1.0,
        ("ingest.announcements.dropped", (("reason", "filtered"),)): 1.0,
        ("ingest.announcements.dropped", (("reason", "overflow"),)): 1.0,
    }

    def test_values_are_unchanged_and_survive_a_reset_and_a_swap(self):
        plane = IngestPlane(nodes=["a", "b"], capacity=1)
        registry = obs.enable()
        try:
            self.push_stream(plane)
            plane.drain(flush=True)
            counted = {key: registry.counter(key[0], **dict(key[1])).value for key in self.EXPECTED}
            assert counted == self.EXPECTED
            assert registry.gauge("ingest.ring.occupancy", node="a").value == 0.0
            obs.reset()  # same registry, next generation: handles re-resolve
            plane.push("a", 10.0, np.ones(NUM_METRICS))
            plane.push("b", 11.0, np.ones(NUM_METRICS))
            assert plane.drain(max_rows=1, flush=True).timestamps.tolist() == [10.0]
            assert registry.counter("ingest.announcements.received").value == 2.0
            assert registry.histogram("ingest.drain.rows").count == 1
            assert registry.gauge("ingest.ring.occupancy", node="b").value == 1.0
            obs.disable()
            swapped = obs.enable()  # a new registry: handles re-resolve
            assert swapped is not registry
            plane.push("b", 12.0, np.ones(NUM_METRICS))
            plane.push("b", 13.0, np.ones(NUM_METRICS))
            plane.drain(flush=True)
            assert swapped.counter("ingest.announcements.received").value == 2.0
            assert swapped.counter("ingest.announcements.dropped", reason="overflow").value == 2.0
            assert registry.counter("ingest.announcements.received").value == 2.0
            assert swapped.gauge("ingest.ring.occupancy", node="b").value == 0.0
        finally:
            obs.disable()


class TestBufferReuse:
    def test_drain_views_are_invalidated_by_next_drain(self):
        plane = IngestPlane()
        plane.push("a", 1.0, np.full(NUM_METRICS, 10.0))
        first = plane.drain()
        kept = first.timestamps.copy()
        plane.push("a", 2.0, np.full(NUM_METRICS, 20.0))
        second = plane.drain()
        # Same reused storage underneath both batches.
        assert first.timestamps.base is second.timestamps.base
        assert first.timestamps[0] == second.timestamps[0] == 2.0
        assert kept[0] == 1.0

    def test_new_node_regrows_buffers(self):
        plane = IngestPlane(capacity=4)
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.drain()
        plane.push("b", 2.0, np.ones(NUM_METRICS))
        plane.push("a", 3.0, np.ones(NUM_METRICS))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [2.0, 3.0]
        assert batch.nodes == ("a", "b")


class TestChannelIntegration:
    def test_announcements_land_via_channel(self):
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        channel.announce(ann("a", 1.0, 11.0))
        channel.announce(ann("b", 2.0, 22.0))
        batch = plane.drain()
        assert len(batch) == 2
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b"]


def test_slo_rules_cover_the_ingest_instruments():
    rules = ingest_slo_rules()
    names = {r.name for r in rules}
    assert names == {
        "ingest-overflow-rate",
        "ingest-late-rate",
        "ingest-ring-occupancy",
        "ingest-drain-p99-seconds",
        "ingest-drain-to-classify-p99",
    }
    metrics = {r.metric for r in rules}
    assert "ingest.announcements.dropped" in metrics
    assert "ingest.ring.occupancy" in metrics
    assert "ingest.drain_to_classify.seconds" in metrics
