"""Drained-batch classification: bit-identity with the per-announcement path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.serve.batch import BatchClassifier
from repro.serve.service import ClassificationService
from repro.serve.stream import drain_to_series
from repro.core.online import OnlineClassifier
from repro.metrics.catalog import NUM_METRICS


def run_both_arms(classifier, announcements, *, pump_rows=None, lateness_s=0.0):
    """Feed *announcements* through push and pull modes; return both classifiers."""
    push_channel = MulticastChannel()
    push_online = OnlineClassifier(classifier, push_channel)
    for announcement in announcements:
        push_channel.announce(announcement)

    pull_channel = MulticastChannel()
    plane = IngestPlane(pull_channel, lateness_s=lateness_s)
    pull_online = OnlineClassifier(classifier, plane)
    for announcement in announcements:
        pull_channel.announce(announcement)
    drained = []
    while True:
        result = pull_online.pump(pump_rows)
        if len(result) == 0:
            break
        drained.append(result)
    if plane.buffered:
        drained.append(pull_online.pump(flush=True))
    return push_online, pull_online, drained


def codes_by_node(online, announcements):
    """Classify each announcement alone (pure path), grouped per node."""
    grouped: dict[str, list[int]] = {}
    for announcement in announcements:
        grouped.setdefault(announcement.node, []).append(int(online.classify(announcement)))
    return grouped


def drained_codes_by_node(drained):
    grouped: dict[str, list[int]] = {}
    for result in drained:
        for node in result.nodes:
            codes = result.codes_for(node)
            if codes.shape[0]:
                grouped.setdefault(node, []).extend(int(c) for c in codes)
    return grouped


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_pump_is_bit_identical_to_per_announcement(
    dtype, classifier, classifier_f32
):
    clf = classifier if dtype == "float64" else classifier_f32
    announcements = synthetic_fleet(6, 12, seed=5)
    push_online, pull_online, drained = run_both_arms(clf, announcements, pump_rows=17)

    assert codes_by_node(push_online, announcements) == drained_codes_by_node(drained)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fanback_state_matches_sequential_fold(dtype, classifier, classifier_f32):
    clf = classifier if dtype == "float64" else classifier_f32
    announcements = synthetic_fleet(5, 14, seed=9)
    push_online, pull_online, drained = run_both_arms(clf, announcements, pump_rows=11)

    assert push_online.nodes() == pull_online.nodes()
    for node in push_online.nodes():
        sp, sq = push_online.state(node), pull_online.state(node)
        assert np.array_equal(sp.class_counts, sq.class_counts)
        assert sp.current_class is sq.current_class
        assert sp.streak == sq.streak, f"streak diverged for {node}"
        assert sp.snapshots_seen == sq.snapshots_seen
        assert sp.last_timestamp == sq.last_timestamp


def test_streaks_survive_multiple_pumps(classifier):
    # Many tiny pumps exercise the cross-drain streak continuation: a
    # class run split across drains must extend, not restart.
    announcements = synthetic_fleet(3, 20, seed=2)
    push_online, pull_online, _ = run_both_arms(classifier, announcements, pump_rows=4)
    for node in push_online.nodes():
        assert push_online.state(node).streak == pull_online.state(node).streak
        assert push_online.stable_class(node) == pull_online.stable_class(node)


def test_out_of_order_fleet_still_bit_identical(classifier):
    # Jittered arrival order with a lateness budget: the drains see
    # timestamp order, the push arm sees arrival order; per-announcement
    # codes are pure so the per-node multisets must still match exactly.
    announcements = synthetic_fleet(4, 15, seed=11, arrival_jitter_s=3.0)
    plane_channel = MulticastChannel()
    plane = IngestPlane(plane_channel, lateness_s=10.0)
    online = OnlineClassifier(classifier, plane)
    for announcement in announcements:
        plane_channel.announce(announcement)
    drained = []
    while True:
        result = online.pump(flush=True)
        if len(result) == 0:
            break
        drained.append(result)
    stats = plane.stats()
    assert stats.received == len(announcements)
    assert stats.late_dropped == 0

    checker = OnlineClassifier(classifier, MulticastChannel())
    expected = codes_by_node(checker, announcements)
    got = drained_codes_by_node(drained)
    assert {n: sorted(c) for n, c in got.items()} == {
        n: sorted(c) for n, c in expected.items()
    }


def test_classify_stream_is_lazy_and_fans_back(classifier):
    announcements = synthetic_fleet(3, 8, seed=4)
    channel = MulticastChannel()
    plane = IngestPlane(channel)
    online = OnlineClassifier(classifier, plane)
    for announcement in announcements:
        channel.announce(announcement)

    def drains():
        while True:
            batch = plane.drain(flush=True)
            if len(batch) == 0:
                return
            yield batch

    stream = online.classify_stream(drains())
    assert online.nodes() == [], "nothing classified before iteration"
    results = list(stream)
    assert sum(len(r) for r in results) == len(announcements)
    assert len(online.nodes()) == 3


class TestDrainToSeries:
    def test_regroups_per_node_in_timestamp_order(self, classifier):
        announcements = synthetic_fleet(4, 10, seed=8)
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        for announcement in announcements:
            channel.announce(announcement)
        batch = plane.drain(flush=True)
        series = drain_to_series(batch)
        assert sorted(s.node for s in series) == sorted(plane.node_names)
        for s in series:
            assert s.matrix.shape == (NUM_METRICS, 10)
            assert np.all(np.diff(s.timestamps) > 0)

    def test_copies_out_of_reused_buffers(self, classifier):
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        plane.push("a", 1.0, np.full(NUM_METRICS, 7.0))
        series = drain_to_series(plane.drain(flush=True))
        plane.push("a", 2.0, np.full(NUM_METRICS, 9.0))
        plane.drain(flush=True)
        assert series[0].matrix[0, 0] == 7.0, "series must own their rows"

    def test_equal_timestamps_within_a_window_raise(self):
        plane = IngestPlane()
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        plane.push("a", 6.0, np.ones(NUM_METRICS))
        plane.push("a", 5.0, np.ones(NUM_METRICS))  # non-consecutive duplicate
        batch = plane.drain(flush=True)
        with pytest.raises(ValueError):
            drain_to_series(batch)

    def test_series_route_matches_batch_kernel(self, classifier):
        announcements = synthetic_fleet(3, 12, seed=6)
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        for announcement in announcements:
            channel.announce(announcement)
        series = drain_to_series(plane.drain(flush=True))
        direct = BatchClassifier(classifier).classify_batch(series)
        with ClassificationService(classifier, batch_size=4) as service:
            channel2 = MulticastChannel()
            plane2 = IngestPlane(channel2)
            for announcement in announcements:
                channel2.announce(announcement)
            futures = service.submit_drain(plane2.drain(flush=True))
            via_service = [f.result(timeout=30) for f in futures]
        assert len(via_service) == len(direct)
        for a, b in zip(direct, via_service):
            assert a.application_class == b.application_class
            assert np.array_equal(a.class_vector, b.class_vector)
