"""The unified ``Classifier`` protocol."""

from __future__ import annotations

import pytest

from repro.core.config import ClassifierConfig
from repro.core.online import OnlineClassifier
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.manager.service import ResourceManager
from repro.serve.batch import BatchClassifier
from repro.serve.protocol import Classifier


class FakeModelSource:
    """Injectable stand-in for a ModelCache: records what was requested."""

    def __init__(self, classifier):
        self.classifier = classifier
        self.requests = []

    def get(self, config=None, seed=0):
        self.requests.append((config, seed))
        return self.classifier


class TestProtocolConformance:
    def test_online_classifier_satisfies_protocol(self, classifier):
        online = OnlineClassifier(classifier, MulticastChannel())
        assert isinstance(online, Classifier)

    def test_batch_classifier_satisfies_protocol(self, classifier):
        assert isinstance(BatchClassifier(classifier), Classifier)

    def test_resource_manager_satisfies_protocol(self, classifier):
        assert isinstance(ResourceManager(classifier=classifier), Classifier)

    def test_protocol_rejects_unrelated_types(self):
        assert not isinstance(object(), Classifier)


class TestFromConfigFactories:
    def test_online_from_config(self, classifier):
        source = FakeModelSource(classifier)
        config = ClassifierConfig()
        online = OnlineClassifier.from_config(
            config, MulticastChannel(), model_source=source, seed=7
        )
        assert online.classifier is classifier
        assert source.requests == [(config, 7)]
        assert online.attached

    def test_online_from_config_accepts_a_plane(self, classifier):
        online = OnlineClassifier.from_config(
            ClassifierConfig(),
            IngestPlane(),
            model_source=FakeModelSource(classifier),
        )
        assert online.pull_mode

    def test_batch_from_config(self, classifier):
        source = FakeModelSource(classifier)
        batch = BatchClassifier.from_config(ClassifierConfig(), model_source=source)
        assert batch.classifier is classifier

    def test_manager_from_config_is_lazy(self, classifier):
        source = FakeModelSource(classifier)
        manager = ResourceManager.from_config(ClassifierConfig(), seed=3, model_cache=source)
        assert manager.classifier is None, "model fetched on first use, not at build"
        assert manager.ensure_trained() is classifier
        assert source.requests == [(ClassifierConfig(), 3)]


class TestProtocolVerbs:
    def test_classify_batch_matches_classify(self, classifier):
        online = OnlineClassifier(classifier, MulticastChannel())
        announcements = synthetic_fleet(2, 3, seed=1)
        batched = online.classify_batch(announcements)
        singles = [online.classify(a) for a in announcements]
        assert batched == singles
        assert online.classify_batch([]) == []

    def test_manager_classify_stream_yields_per_drain(self, classifier):
        manager = ResourceManager(classifier=classifier)
        plane = IngestPlane()
        for announcement in synthetic_fleet(2, 10, seed=2):
            plane.push(announcement.node, announcement.timestamp, announcement.values)
        batches = [plane.drain(flush=True)]
        results = list(manager.classify_stream(iter(batches)))
        assert len(results) == 1
        assert len(results[0]) == 2, "one result per node in the window"

    def test_batch_classify_stream(self, classifier):
        batch = BatchClassifier(classifier)
        plane = IngestPlane()
        for announcement in synthetic_fleet(3, 8, seed=3):
            plane.push(announcement.node, announcement.timestamp, announcement.values)
        windows = [plane.drain(flush=True)]
        (results,) = list(batch.classify_stream(iter(windows)))
        assert len(results) == 3

    def test_classify_requires_attachment(self, classifier):
        online = OnlineClassifier(classifier, MulticastChannel())
        online.detach()
        announcement = synthetic_fleet(1, 1, seed=0)[0]
        with pytest.raises(RuntimeError, match="detached"):
            online.classify(announcement)
        online.attach()
        assert online.classify(announcement) is not None
