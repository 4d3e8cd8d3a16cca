"""Tests for the online (streaming) classifier."""

import numpy as np
import pytest

from repro.core.labels import SnapshotClass
from repro.errors import NotTrainedError
from repro.core.online import NodeClassificationState, OnlineClassifier
from repro.core.pipeline import ApplicationClassifier
from repro.monitoring.multicast import MetricAnnouncement, MulticastChannel
from repro.metrics.catalog import NUM_METRICS, metric_index

from tests.test_core_pipeline import synthetic_series, synthetic_training


@pytest.fixture(scope="module")
def trained():
    return ApplicationClassifier().train(synthetic_training())


def announce_kind(channel, node, t, kind, seed=0):
    """Publish one announcement with a class-typical metric signature."""
    series = synthetic_series(kind, m=1, seed=seed, node=node)
    channel.announce(
        MetricAnnouncement(node=node, timestamp=t, values=series.matrix[:, 0])
    )


class TestNodeState:
    def test_streak_tracking(self):
        state = NodeClassificationState(node="n")
        state.record(SnapshotClass.CPU, 5.0)
        state.record(SnapshotClass.CPU, 10.0)
        state.record(SnapshotClass.IO, 15.0)
        assert state.current_class is SnapshotClass.IO
        assert state.streak == 1
        assert state.snapshots_seen == 3
        assert state.last_timestamp == 15.0

    def test_composition_and_majority(self):
        state = NodeClassificationState(node="n")
        for _ in range(3):
            state.record(SnapshotClass.NET, 0.0)
        state.record(SnapshotClass.IO, 0.0)
        assert state.majority_class() is SnapshotClass.NET
        assert state.composition().net == pytest.approx(0.75)

    def test_empty_state_raises(self):
        state = NodeClassificationState(node="n")
        with pytest.raises(ValueError):
            state.composition()
        with pytest.raises(ValueError):
            state.majority_class()


class TestOnlineClassifier:
    def test_requires_trained_classifier(self):
        with pytest.raises(RuntimeError):
            OnlineClassifier(ApplicationClassifier(), MulticastChannel())

    def test_streams_and_accumulates(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        for t in range(5):
            announce_kind(channel, "VM1", float(t * 5), "cpu", seed=t)
        state = online.state("VM1")
        assert state.snapshots_seen == 5
        assert state.majority_class() is SnapshotClass.CPU

    def test_tracks_multiple_nodes(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu")
        announce_kind(channel, "VM2", 5.0, "net")
        assert online.nodes() == ["VM1", "VM2"]
        assert online.state("VM2").majority_class() is SnapshotClass.NET

    def test_node_allow_list(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel, nodes=["VM1"])
        announce_kind(channel, "VM1", 5.0, "cpu")
        announce_kind(channel, "VM2", 5.0, "net")
        assert online.nodes() == ["VM1"]
        with pytest.raises(KeyError):
            online.state("VM2")

    def test_stable_class_requires_streak(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu", seed=1)
        assert online.stable_class("VM1", min_streak=3) is None
        announce_kind(channel, "VM1", 10.0, "cpu", seed=2)
        announce_kind(channel, "VM1", 15.0, "cpu", seed=3)
        assert online.stable_class("VM1", min_streak=3) is SnapshotClass.CPU

    def test_stable_class_resets_on_change(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        for t, kind in enumerate(["cpu", "cpu", "cpu", "io"]):
            announce_kind(channel, "VM1", float(t * 5), kind, seed=t)
        assert online.stable_class("VM1", min_streak=2) is None

    def test_stable_class_validation(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu")
        with pytest.raises(ValueError):
            online.stable_class("VM1", min_streak=0)

    def test_detach_stops_consumption(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu")
        online.detach()
        announce_kind(channel, "VM1", 10.0, "cpu")
        assert online.state("VM1").snapshots_seen == 1

    def test_matches_batch_classification(self, trained):
        """Streaming the snapshots one-by-one equals the batch class vector."""
        series = synthetic_series("io", m=20, seed=9)
        batch = trained.classify_series(series).class_vector
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        for j in range(len(series)):
            channel.announce(
                MetricAnnouncement(
                    node="VM1",
                    timestamp=float(series.timestamps[j]),
                    values=series.matrix[:, j],
                )
            )
        state = online.state("VM1")
        assert state.snapshots_seen == 20
        assert np.argmax(state.class_counts) == np.bincount(batch, minlength=5).argmax()

    def test_live_engine_stream(self, classifier):
        """Online classification riding a real simulation's channel."""
        from repro.monitoring.stack import MonitoringStack
        from repro.sim.engine import SimulationEngine
        from repro.sim.execution import classification_testbed
        from repro.workloads.base import WorkloadInstance
        from repro.workloads.io import postmark

        cluster = classification_testbed()
        engine = SimulationEngine(cluster, seed=8)
        stack = MonitoringStack(engine, seed=9)
        online = OnlineClassifier(classifier, stack.channel, nodes=["VM1"])
        engine.add_instance(WorkloadInstance(postmark(120.0), vm_name="VM1"))
        engine.run()
        state = online.state("VM1")
        assert state.snapshots_seen >= 20
        assert state.majority_class() is SnapshotClass.IO


class TestAttachDetachLifecycle:
    """Regression tests: idempotent detach, re-attach, hoisted indices."""

    def test_detach_is_idempotent(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        online.detach()
        online.detach()  # second detach is a no-op, not a ValueError
        assert not online.attached

    def test_detach_tolerates_torn_down_channel(self, trained):
        """A channel that already dropped the listener must not blow up."""
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        channel.unsubscribe(online._callback)
        online.detach()
        assert not online.attached

    def test_attach_is_idempotent(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        online.attach()  # already attached: must not double-subscribe
        announce_kind(channel, "VM1", 5.0, "cpu")
        assert online.state("VM1").snapshots_seen == 1

    def test_reattach_resumes_with_kept_state(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu")
        online.detach()
        announce_kind(channel, "VM1", 10.0, "cpu")  # missed while detached
        online.attach()
        announce_kind(channel, "VM1", 15.0, "cpu")
        assert online.attached
        assert online.state("VM1").snapshots_seen == 2

    def test_classify_announcement_raises_when_detached(self, trained):
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        series = synthetic_series("cpu", m=1, seed=11)
        ann = MetricAnnouncement(node="VM1", timestamp=0.0, values=series.matrix[:, 0])
        online.detach()
        with pytest.raises(RuntimeError, match="detached"):
            online.classify(ann)
        online.attach()
        assert online.classify(ann) is SnapshotClass.CPU

    def test_late_delivery_after_detach_is_dropped(self, trained):
        """Detaching from inside the same fan-out drops later deliveries.

        The channel snapshots its listener list before delivering, so a
        listener that detaches the classifier mid-fan-out cannot stop
        the already-scheduled delivery — the classifier itself must
        drop it instead of classifying while detached.
        """
        channel = MulticastChannel()
        channel.subscribe(lambda ann: online.detach())
        online = OnlineClassifier(trained, channel)
        announce_kind(channel, "VM1", 5.0, "cpu")
        assert not online.attached
        with pytest.raises(KeyError):
            online.state("VM1")

    def test_metric_indices_hoisted_to_attach(self, trained, monkeypatch):
        """Attach reads the classifier's train-time index; nothing recomputes it."""
        import repro.core.pipeline as pipeline_mod

        def forbidden(_names):
            raise AssertionError("metric_indices called after training")

        monkeypatch.setattr(pipeline_mod, "metric_indices", forbidden)
        channel = MulticastChannel()
        online = OnlineClassifier(trained, channel)
        assert online._metric_idx is trained._metric_idx
        for t in range(5):
            announce_kind(channel, "VM1", float(t), "cpu")
        online.detach()
        online.attach()
        assert online._metric_idx is trained._metric_idx
        assert online.state("VM1").snapshots_seen == 5

    def test_attach_requires_a_trained_classifier(self, trained):
        online = OnlineClassifier(trained, MulticastChannel())
        online.detach()
        online.classifier = ApplicationClassifier()
        with pytest.raises(NotTrainedError):
            online.attach()
        assert not online.attached
