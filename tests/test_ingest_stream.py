"""Drained-batch classification: bit-identity with the per-announcement path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def codes_by_announcement(drained):
    """Drained codes keyed by (node, timestamp): one entry per announcement."""
    keyed: dict[tuple[str, float], int] = {}
    for result in drained:
        for node_id, ts, code in zip(result.node_ids, result.timestamps, result.codes):
            keyed[(result.nodes[int(node_id)], float(ts))] = int(code)
    return keyed


# Generated fleets for the push ≡ pull properties: a jitter of 2 s
# delivers out of order, inside the 2.5 s lateness budget.
FLEETS = dict(
    num_nodes=st.integers(1, 8),
    per_node=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    pump_rows=st.none() | st.integers(1, 64),
    jitter=st.sampled_from([0.0, 2.0]),
)
LATENESS_S = 2.5


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=40, deadline=None)
@given(**FLEETS)
@example(num_nodes=6, per_node=12, seed=5, pump_rows=17, jitter=0.0)
def test_pump_is_bit_identical_to_per_announcement(
    dtype, classifier, classifier_f32, num_nodes, per_node, seed, pump_rows, jitter
):
    clf = classifier if dtype == "float64" else classifier_f32
    announcements = synthetic_fleet(num_nodes, per_node, seed=seed, arrival_jitter_s=jitter)
    push_online, _, drained = run_both_arms(
        clf, announcements, pump_rows=pump_rows, lateness_s=LATENESS_S
    )

    expected = {
        (a.node, a.timestamp): int(push_online.classify(a)) for a in announcements
    }
    assert codes_by_announcement(drained) == expected
    assert sum(len(result) for result in drained) == len(announcements)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=40, deadline=None)
@given(**FLEETS)
@example(num_nodes=5, per_node=14, seed=9, pump_rows=11, jitter=0.0)
def test_fanback_state_matches_sequential_fold(
    dtype, classifier, classifier_f32, num_nodes, per_node, seed, pump_rows, jitter
):
    clf = classifier if dtype == "float64" else classifier_f32
    announcements = synthetic_fleet(num_nodes, per_node, seed=seed, arrival_jitter_s=jitter)
    push_online, pull_online, _ = run_both_arms(
        clf, announcements, pump_rows=pump_rows, lateness_s=LATENESS_S
    )

    assert push_online.nodes() == pull_online.nodes()
    for node in push_online.nodes():
        sp, sq = push_online.state(node), pull_online.state(node)
        assert np.array_equal(sp.class_counts, sq.class_counts)
        assert sp.snapshots_seen == sq.snapshots_seen
        if jitter == 0.0:
            # In-order delivery: the push arm folds in timestamp order
            # too, so the order-dependent state must match as well.
            assert sp.current_class is sq.current_class
            assert sp.streak == sq.streak, f"streak diverged for {node}"
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
