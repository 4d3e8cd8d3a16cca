"""Drained-batch classification: bit-identity with the per-announcement path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ingest import DrainBatch, IngestPlane, MulticastChannel, synthetic_fleet
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier
from repro.serve.service import ClassificationService
from repro.serve.stream import _drain_requests, drain_to_series, drain_trace_contexts
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


# ----------------------------------------------------------------------
# Grouping a drain by node: the per-node-mask definition
# ----------------------------------------------------------------------


def masked_series(batch):
    """``drain_to_series`` by definition: one ``node_ids == k`` mask per node."""
    out = []
    for node_id, node in enumerate(batch.nodes):
        sel = batch.node_ids == node_id
        if np.any(sel):
            out.append(
                SnapshotSeries(
                    node=node,
                    timestamps=batch.timestamps[sel].copy(),
                    matrix=batch.values[sel].T.copy(),
                )
            )
    return out


def masked_contexts(batch):
    """``drain_trace_contexts`` by definition; returns the contexts and the coalesced count."""
    registry = obs.get_registry()
    contexts, coalesced = [], 0
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
    return contexts, coalesced


def context_fields(ctx):
    return (bool(ctx), ctx.trace_id, ctx.span_id, ctx.name, ctx.parent_span_id, list(ctx.marks))


def coalesced_count(registry):
    return sum(i.value for i in registry.instruments() if i.name == "obs.traces.coalesced")


@st.composite
def drains(draw):
    """Merged drains over 1-5 registered nodes, some of them absent."""
    num_nodes = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["any", "one", "every"]))
    if shape == "one":
        node = draw(st.integers(0, num_nodes - 1))
        node_ids = [node] * draw(st.integers(1, 12))
    else:
        node_ids = draw(st.lists(st.integers(0, num_nodes - 1), max_size=24))
        if shape == "every":
            node_ids += list(range(num_nodes))
    rows = len(node_ids)
    # Strictly increasing times keep every node's series valid.
    steps = draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=rows, max_size=rows))
    timestamps = np.cumsum(np.asarray(steps, dtype=np.float64))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(
        0.0, 100.0, size=(rows, NUM_METRICS)
    )
    traced = draw(st.sampled_from(["none", "off", "mixed"]))
    trace_ids = enqueued_s = None
    if traced != "none":
        picks = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
        trace_ids = np.array(
            [0 if traced == "off" or p == 0 else 100 + i for i, p in enumerate(picks)],
            dtype=np.int64,
        )
        enqueued_s = np.where(trace_ids > 0, timestamps - 0.25, 0.0)
    return DrainBatch(
        nodes=tuple(f"n{k}" for k in range(num_nodes)),
        node_ids=np.asarray(node_ids, dtype=np.intp),
        timestamps=timestamps,
        values=values,
        watermark=float(timestamps[-1]) if rows else 0.0,
        trace_ids=trace_ids,
        enqueued_s=enqueued_s,
        drained_s=draw(st.sampled_from([0.0, 99.0])),
    )


class TestGroupingMatchesPerNodeMasks:
    @settings(max_examples=150, deadline=None)
    @given(batch=drains(), observed=st.booleans())
    def test_series_and_contexts_equal_the_mask_definition(self, batch, observed):
        obs.disable()
        try:
            if observed:
                obs.enable()
            expected_series = masked_series(batch)
            expected_contexts, expected_coalesced = masked_contexts(batch)
            for route in ("separate", "together"):
                # A fresh registry per route: span ids restart at 1.
                obs.disable()
                registry = obs.enable() if observed else obs.get_registry()
                if route == "separate":
                    series = drain_to_series(batch)
                    contexts = drain_trace_contexts(batch)
                else:
                    series, contexts = _drain_requests(batch)
                assert [s.node for s in series] == [s.node for s in expected_series]
                for got, want in zip(series, expected_series):
                    assert np.array_equal(got.timestamps, want.timestamps)
                    assert np.array_equal(got.matrix, want.matrix)
                    assert got.matrix.flags.c_contiguous
                assert [context_fields(c) for c in contexts] == [
                    context_fields(c) for c in expected_contexts
                ]
                assert coalesced_count(registry) == (expected_coalesced if observed else 0)
        finally:
            obs.disable()
