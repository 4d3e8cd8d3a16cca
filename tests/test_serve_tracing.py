"""End-to-end request tracing through the ingest plane and the service.

Everything runs under a deterministic, thread-safe injected clock (each
read returns the next integer), so latency attribution is asserted
*exactly*: the boundary segments of every trace telescope to the root
span's end-to-end duration bit for bit.
"""

import itertools
import random
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import ApplicationClassifier
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.obs.context import PIPELINE_STAGE_NAMES, TailSampler
from repro.serve.service import ClassificationService
from repro.serve.stream import drain_trace_contexts

from tests.conftest import instrument


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class TickClock:
    """Thread-safe fake clock: every read is the next integer second."""

    def __init__(self):
        self._ticks = itertools.count(1)
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return float(next(self._ticks))


@pytest.fixture()
def traced(classifier):
    """(registry, classifier) with obs enabled on one shared fake clock."""
    clock = TickClock()
    registry = obs.enable(clock=clock)
    registry.reset()
    previous = classifier.clock
    classifier.clock = clock
    yield registry, classifier
    classifier.clock = previous
    obs.disable()


def roots(registry):
    return [s for s in registry.spans() if s.name == "serve.request" and s.span_id]


def children_of(registry, root):
    return [s for s in registry.spans() if s.parent_id == root.span_id]


def make_series(classifier, n=4, seed=0):
    """One valid snapshot series, built without minting any trace ids."""
    from repro.metrics.series import SnapshotSeries

    fleet = synthetic_fleet(1, n, seed=seed)
    return SnapshotSeries(
        node=fleet[0].node,
        timestamps=np.array([a.timestamp for a in fleet]),
        matrix=np.stack([a.values for a in fleet], axis=1),
    )


class TestDirectSubmit:
    def test_one_submission_produces_one_complete_trace(self, traced):
        registry, classifier = traced
        series = make_series(classifier)
        with ClassificationService(classifier, batch_size=1, workers=1) as service:
            service.submit(series).result(timeout=10)
        (root,) = roots(registry)
        assert root.trace_id
        kids = children_of(registry, root)
        assert [k.name for k in kids] == [
            "serve.queue.wait",
            "serve.batch.wait",
            "pipeline.classify",
        ]
        # Exact latency attribution: the segments telescope to the
        # root's end-to-end duration under the integer fake clock.
        assert sum(k.duration_s for k in kids) == root.duration_s
        tail = kids[-1]
        stages = [s for s in registry.spans() if s.parent_id == tail.span_id]
        assert [s.name for s in stages] == [
            f"pipeline.stage.{name}" for name in PIPELINE_STAGE_NAMES
        ]
        # Stage children are contiguous (each starts where the previous
        # ended) and stay inside the compute tail; they cover the
        # *kernel's* stage durations, not the batch bookkeeping around
        # it, so they sum to at most the tail.
        t = tail.start_s
        for stage in stages:
            assert stage.start_s == t
            t += stage.duration_s
        assert sum(s.duration_s for s in stages) <= tail.duration_s
        assert all(s.trace_id == root.trace_id for s in [*kids, *stages])

    def test_attribution_histograms_sum_to_end_to_end(self, traced):
        registry, classifier = traced
        series = make_series(classifier)
        with ClassificationService(classifier, batch_size=1, workers=1) as service:
            service.submit(series).result(timeout=10)
        (root,) = roots(registry)
        queue_wait = instrument(registry, "serve.queue_wait.seconds")
        batch_wait = instrument(registry, "serve.batch_wait.seconds")
        assert queue_wait.count == 1
        assert batch_wait.count == 1
        compute = next(
            k.duration_s
            for k in children_of(registry, root)
            if k.name == "pipeline.classify"
        )
        assert queue_wait.sum + batch_wait.sum + compute == root.duration_s
        for hist in (queue_wait, batch_wait):
            (exemplar,) = hist.exemplars()
            assert exemplar["trace_id"] == root.trace_id

    def test_multiple_workers_each_result_has_a_complete_trace(self, traced):
        registry, classifier = traced
        series = [make_series(classifier, seed=i) for i in range(6)]
        with ClassificationService(
            classifier, batch_size=2, max_wait_s=0.005, workers=2, max_queue=64
        ) as service:
            futures = [service.submit(s) for s in series]
            for f in futures:
                f.result(timeout=10)
        all_roots = roots(registry)
        assert len(all_roots) == 6
        assert len({r.trace_id for r in all_roots}) == 6
        for root in all_roots:
            kids = children_of(registry, root)
            assert [k.name for k in kids] == [
                "serve.queue.wait",
                "serve.batch.wait",
                "pipeline.classify",
            ]
            assert sum(k.duration_s for k in kids) == root.duration_s
            stages = [
                s for s in registry.spans() if s.parent_id == kids[-1].span_id
            ]
            assert len(stages) == len(PIPELINE_STAGE_NAMES)


class TestIngestToService:
    def test_trace_survives_ring_drain_and_queue(self, traced):
        registry, classifier = traced
        channel = MulticastChannel()
        plane = IngestPlane(channel, capacity=64)
        for a in synthetic_fleet(2, 4, seed=0):
            channel.announce(a)
        with ClassificationService(
            classifier, batch_size=4, max_wait_s=0.005, workers=2
        ) as service:
            futures = service.submit_drain(plane.drain())
            assert len(futures) == 2
            for f in futures:
                f.result(timeout=10)
        all_roots = roots(registry)
        assert len(all_roots) == 2
        for root in all_roots:
            kids = children_of(registry, root)
            assert [k.name for k in kids] == [
                "ingest.buffer",
                "ingest.handoff",
                "serve.queue.wait",
                "serve.batch.wait",
                "pipeline.classify",
            ]
            assert sum(k.duration_s for k in kids) == root.duration_s
            stages = [
                s for s in registry.spans() if s.parent_id == kids[-1].span_id
            ]
            assert [s.name for s in stages] == [
                f"pipeline.stage.{name}" for name in PIPELINE_STAGE_NAMES
            ]
        drain_hist = instrument(registry, "ingest.drain_to_classify.seconds")
        assert drain_hist.count == 2
        assert drain_hist.exemplars()

    def test_coalesced_rows_counted(self, traced):
        registry, classifier = traced
        channel = MulticastChannel()
        plane = IngestPlane(channel, capacity=64)
        for a in synthetic_fleet(1, 5, seed=0):
            channel.announce(a)
        batch = plane.drain()
        contexts = drain_trace_contexts(batch)
        assert len(contexts) == 1
        assert contexts[0].mark_time("ingest.push") is not None
        assert contexts[0].mark_time("ingest.drain") is not None
        coalesced = next(
            i for i in registry.instruments() if i.name == "obs.traces.coalesced"
        )
        assert coalesced.value == 4  # 5 rows, one representative trace

    def test_drain_without_tracing_yields_null_contexts(self, classifier):
        channel = MulticastChannel()
        plane = IngestPlane(channel, capacity=64)
        for a in synthetic_fleet(1, 3, seed=0):
            channel.announce(a)
        contexts = drain_trace_contexts(plane.drain())
        assert len(contexts) == 1
        assert not contexts[0]


class TestTailSampling:
    def test_boring_traces_follow_the_seeded_pattern(self, traced):
        registry, classifier = traced
        # A huge slow threshold keeps fake-clock durations out of the
        # always-keep path, isolating the seeded probabilistic draws.
        registry.sampler = TailSampler(keep_ratio=0.5, slow_threshold_s=1e9, seed=0)
        series = make_series(classifier)
        n = 8
        with ClassificationService(classifier, batch_size=1, workers=1) as service:
            for _ in range(n):
                service.submit(series).result(timeout=10)  # serial: one draw per trace
        rng = random.Random(0)
        expected_kept = [i + 1 for i in range(n) if rng.random() < 0.5]
        assert sorted(r.trace_id for r in roots(registry)) == expected_kept
        counters = {
            (i.name, dict(i.labels).get("reason")): i.value
            for i in registry.instruments()
            if i.name.startswith("obs.traces.")
        }
        assert counters[("obs.traces.kept", "sampled")] == len(expected_kept)
        assert counters[("obs.traces.dropped", None)] == n - len(expected_kept)

    def test_dropped_traces_leave_no_spans_but_results_flow(self, traced):
        registry, classifier = traced
        registry.sampler = TailSampler(keep_ratio=0.0, slow_threshold_s=1e9, seed=0)
        series = make_series(classifier)
        with ClassificationService(classifier, batch_size=1, workers=1) as service:
            result = service.submit(series).result(timeout=10)
        assert result.num_samples == len(series)
        # No trace-carrying spans survive; the worker's own untraced
        # batch span (trace_id 0) is not part of any request trace.
        assert [s for s in registry.spans() if s.trace_id] == []
        # Attribution histograms are complete even for dropped traces.
        assert instrument(registry, "serve.queue_wait.seconds").count == 1

    def test_errored_traces_always_kept(self, traced):
        registry, classifier = traced
        registry.sampler = TailSampler(keep_ratio=0.0, slow_threshold_s=1e9, seed=0)
        series = make_series(classifier)
        service = ClassificationService(classifier, batch_size=1, workers=1)
        # Sabotage the batch kernel after startup: the worker's classify
        # raises NotTrainedError and the request fails.
        service.batch.classifier = ApplicationClassifier()
        future = service.submit(series)
        with pytest.raises(Exception):
            future.result(timeout=10)
        service.shutdown()
        (root,) = roots(registry)
        kids = children_of(registry, root)
        assert [k.name for k in kids] == [
            "serve.queue.wait",
            "serve.batch.wait",
            "serve.failed",
        ]
        assert sum(k.duration_s for k in kids) == root.duration_s
        kept = next(
            i
            for i in registry.instruments()
            if i.name == "obs.traces.kept" and dict(i.labels).get("reason") == "error"
        )
        assert kept.value == 1


class TestUntracedPathsUnchanged:
    def test_disabled_service_records_nothing(self, classifier):
        series = make_series(classifier)
        with ClassificationService(classifier, batch_size=1, workers=1) as service:
            result = service.submit(series).result(timeout=10)
        assert result.num_samples == len(series)
        assert obs.get_registry().spans() == []
        assert obs.get_registry().instruments() == []

    def test_traced_batch_results_match_untraced(self, traced):
        registry, classifier = traced
        series = make_series(classifier)
        from repro.serve.batch import BatchClassifier

        batch = BatchClassifier(classifier)
        plain = batch.classify_batch([series])
        traced_results, stage_seconds = batch.classify_batch_traced([series])
        assert len(stage_seconds) == len(PIPELINE_STAGE_NAMES)
        assert np.array_equal(plain[0].class_vector, traced_results[0].class_vector)
        assert plain[0].application_class is traced_results[0].application_class
