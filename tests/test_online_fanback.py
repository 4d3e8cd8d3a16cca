"""Columnar fan-back ≡ the sequential ``NodeClassificationState.record`` fold.

``OnlineClassifier`` keeps node state as columns by local node id and
folds each drain in one vectorised pass (and each push delivery with
the record rule written into the columns).  The property here pins both
to the reference definition: fold every emitted row through
``NodeClassificationState.record`` in timeline order.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.online as online_module
from repro import obs
from repro.core.config import ClassifierConfig
from repro.core.labels import SnapshotClass
from repro.core.online import NodeClassificationState, OnlineClassifier
from repro.core.pipeline import ApplicationClassifier
from repro.ingest import IngestPlane
from repro.metrics.catalog import NUM_METRICS
from repro.monitoring.multicast import MetricAnnouncement, MulticastChannel

from tests.conftest import instrument
from tests.test_core_pipeline import synthetic_series, synthetic_training

KINDS = ("idle", "io", "cpu", "net", "mem")
MAX_NODES = 6
GHOST = "ghost"


@pytest.fixture(scope="module")
def classifiers():
    """The synthetic-signature classifier in both compute dtypes."""
    return {
        dtype: ApplicationClassifier.from_config(ClassifierConfig(compute_dtype=dtype)).train(
            synthetic_training()
        )
        for dtype in ("float64", "float32")
    }


#: One class-typical metric vector per kind, so a drawn kind steers the class.
SIGNATURES = [synthetic_series(kind, m=1, seed=20 + i).matrix[:, 0] for i, kind in enumerate(KINDS)]


def node_name(index: int) -> str:
    return f"n{index}"


def reference_fold(online, announcements, allow):
    """Fold each allowed announcement through ``record``, in timeline order."""
    states: dict[str, NodeClassificationState] = {}
    for announcement in announcements:
        if allow is not None and announcement.node not in allow:
            continue
        state = states.setdefault(announcement.node, NodeClassificationState(node=announcement.node))
        state.record(online.classify(announcement), announcement.timestamp)
    return states


def assert_same_states(online, reference):
    assert online.nodes() == sorted(reference)
    for node, want in reference.items():
        got = online.state(node)
        assert got.node == node
        assert np.array_equal(got.class_counts, want.class_counts), node
        assert got.class_counts.dtype == np.int64
        assert got.snapshots_seen == want.snapshots_seen, node
        assert got.last_timestamp == want.last_timestamp, node
        assert got.current_class is want.current_class, node
        assert got.streak == want.streak, node
        for min_streak in (1, want.streak, want.streak + 1):
            expected = want.current_class if want.streak >= min_streak else None
            assert online.stable_class(node, min_streak) is expected


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=100, deadline=None)
@given(
    num_nodes=st.integers(1, MAX_NODES),
    rows=st.lists(st.tuples(st.integers(0, MAX_NODES - 1), st.integers(0, len(KINDS) - 1)), max_size=48),
    rounds=st.integers(1, 3),
    cuts=st.lists(st.integers(1, 16), min_size=1, max_size=4),
    allow=st.none() | st.sets(st.integers(0, MAX_NODES - 1)),
    ghost=st.booleans(),
    wide_keys=st.booleans(),
)
# Every drain is one row: one node per drain.
@example(
    num_nodes=3, rows=[(0, 2), (1, 2), (0, 2), (2, 1), (0, 1)], rounds=1,
    cuts=[1], allow=None, ghost=False, wide_keys=False,
)
# One drain holding every node.
@example(
    num_nodes=4, rows=[(i % 4, i % 5) for i in range(20)], rounds=1,
    cuts=[16], allow=None, ghost=True, wide_keys=False,
)
# One-class drains matching the current class: the streak carries.
@example(
    num_nodes=1, rows=[(0, 2)] * 7, rounds=2,
    cuts=[2, 3], allow=None, ghost=False, wide_keys=False,
)
# A one-class drain that differs from the current class: the streak restarts.
@example(
    num_nodes=1, rows=[(0, 2), (0, 2), (0, 1), (0, 1), (0, 1)], rounds=1,
    cuts=[2], allow=None, ghost=False, wide_keys=False,
)
# An allow-list that drops every row of a registered node.
@example(
    num_nodes=3, rows=[(0, 0), (1, 3), (2, 4), (1, 3)], rounds=2,
    cuts=[3], allow={0, 2}, ghost=True, wide_keys=False,
)
def test_columnar_fanback_matches_sequential_record(
    dtype, classifiers, num_nodes, rows, rounds, cuts, allow, ghost, wide_keys
):
    clf = classifiers[dtype]
    announcements = [
        MetricAnnouncement(node=node_name(node % num_nodes), timestamp=5.0 * (i + 1), values=SIGNATURES[kind])
        for i, (node, kind) in enumerate(rows)
    ]
    allowed = None if allow is None else {node_name(i) for i in allow}

    plane = IngestPlane(capacity=64)
    pulled = OnlineClassifier(clf, plane, nodes=None if allowed is None else sorted(allowed))
    if ghost:
        # Registered by the plane, but its only row is dropped by the drain.
        assert plane.push(GHOST, 0.5, np.full(NUM_METRICS, np.nan))
    # Push in rounds and drain each round in max_rows chunks, so nodes
    # register between drains and streaks run across drain boundaries.
    emitted = 0
    bounds = np.linspace(0, len(announcements), rounds + 1).astype(int)
    drains = 0
    # wide_keys sorts by the intp ids, the path of fleets too large for uint16 keys.
    with mock.patch.object(online_module, "_SMALL_IDS", 0 if wide_keys else online_module._SMALL_IDS):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for announcement in announcements[lo:hi]:
                assert plane.push(announcement.node, announcement.timestamp, announcement.values)
            while plane.buffered:
                emitted += len(pulled.pump(cuts[drains % len(cuts)], flush=True))
                drains += 1

    channel = MulticastChannel()
    pushed = OnlineClassifier(clf, channel, nodes=None if allowed is None else sorted(allowed))
    for announcement in announcements:
        channel.announce(announcement)

    reference = reference_fold(pulled, announcements, allowed)
    assert emitted == sum(state.snapshots_seen for state in reference.values())
    assert_same_states(pulled, reference)
    assert_same_states(pushed, reference)
    for node in {node_name(i) for i in range(MAX_NODES)} - set(reference) | {GHOST}:
        with pytest.raises(KeyError):
            pulled.state(node)
        with pytest.raises(KeyError):
            pulled.stable_class(node)


def test_state_is_a_snapshot(classifiers):
    clf = classifiers["float64"]
    plane = IngestPlane()
    online = OnlineClassifier(clf, plane)
    plane.push("n0", 5.0, SIGNATURES[KINDS.index("cpu")])
    online.pump(flush=True)
    before = online.state("n0")
    before.record(SnapshotClass.IO, 99.0)
    after = online.state("n0")
    assert after.snapshots_seen == 1 and after.current_class is SnapshotClass.CPU
    plane.push("n0", 10.0, SIGNATURES[KINDS.index("cpu")])
    online.pump(flush=True)
    assert online.state("n0").streak == 2
    assert before.streak == 1 and before.current_class is SnapshotClass.IO


def test_allow_list_drops_and_lifecycle_events_count_as_before(classifiers):
    # Pull mode with an allow-list: every row of a node outside it is
    # dropped and counted, including nodes registered between drains,
    # and the attach/detach events count only nodes with snapshots.
    registry = obs.enable()
    try:
        plane = IngestPlane()
        online = OnlineClassifier(classifiers["float64"], plane, nodes=["n0", "n2"])
        cpu = SIGNATURES[KINDS.index("cpu")]
        for t, node in enumerate(["n0", "n1", "n1"]):
            plane.push(node, 5.0 * (t + 1), cpu)
        assert len(online.pump(flush=True)) == 1
        for t, node in enumerate(["n3", "n2", "n1", "n0"]):
            plane.push(node, 50.0 + t, cpu)
        assert len(online.pump(flush=True)) == 2
        assert instrument(registry, "online.announcements.dropped").value == 4.0
        assert online.nodes() == ["n0", "n2"]
        online.detach()
        online.attach()
        lifecycle = [r for r in registry.events() if r.name in ("online.attach", "online.detach")]
        assert [(r.name, dict(r.fields)["nodes"]) for r in lifecycle] == [
            ("online.attach", "0"),
            ("online.detach", "2"),
            ("online.attach", "2"),
        ]
    finally:
        obs.disable()
