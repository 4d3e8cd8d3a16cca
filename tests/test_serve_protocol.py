"""Shared classification verbs across the online, batch and manager front ends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.manager.service import ResourceManager
from repro.serve.batch import BatchClassifier
from repro.serve.stream import drain_to_series
from repro.core.online import OnlineClassifier


def _filled_plane(num_nodes, per_node, seed):
    plane = IngestPlane()
    for announcement in synthetic_fleet(num_nodes, per_node, seed=seed):
        plane.push(announcement.node, announcement.timestamp, announcement.values)
    return plane


class TestProtocolVerbs:
    def test_classify_batch_matches_classify(self, classifier):
        announcements = synthetic_fleet(2, 3, seed=1)
        plane = IngestPlane()
        for a in announcements:
            plane.push(a.node, a.timestamp, a.values)
        online = OnlineClassifier(classifier, plane)
        batched = online.pump(flush=True)
        by_key = {(a.node, a.timestamp): online.classify(a) for a in announcements}
        singles = [
            int(by_key[(batched.nodes[i], t)])
            for i, t in zip(batched.node_ids, batched.timestamps)
        ]
        assert len(batched) == len(announcements)
        assert np.array_equal(batched.codes, singles)
        assert len(online.pump(flush=True)) == 0

    def test_manager_classify_stream_yields_per_drain(self, classifier):
        manager = ResourceManager(classifier=classifier)
        plane = _filled_plane(2, 10, seed=2)
        batch = BatchClassifier(manager.ensure_trained())
        results = [batch.classify_batch(drain_to_series(plane.drain(flush=True)))]
        assert len(results) == 1
        assert len(results[0]) == 2, "one result per node in the window"

    def test_batch_classify_stream(self, classifier):
        batch = BatchClassifier(classifier)
        plane = _filled_plane(3, 8, seed=3)
        results = batch.classify_batch(drain_to_series(plane.drain(flush=True)))
        assert len(results) == 3

    def test_classify_requires_attachment(self, classifier):
        online = OnlineClassifier(classifier, MulticastChannel())
        online.detach()
        announcement = synthetic_fleet(1, 1, seed=0)[0]
        with pytest.raises(RuntimeError, match="detached"):
            online.classify(announcement)
        online.attach()
        assert online.classify(announcement) is not None
