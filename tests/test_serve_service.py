"""Micro-batching, backpressure, and shutdown of the classification service."""

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import ApplicationClassifier
from repro.errors import (
    EmptySeriesError,
    NotTrainedError,
    ReproError,
    ServiceOverloadedError,
)
from repro.experiments.fleet import profile_fleet
from repro.metrics.series import SnapshotSeries
from repro.serve.service import ClassificationService


@pytest.fixture(scope="module")
def fleet():
    return profile_fleet(8, seed=100)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"max_wait_s": -0.1},
            {"max_queue": 0},
            {"workers": 0},
        ],
    )
    def test_bad_parameters(self, classifier, kwargs):
        with pytest.raises(ValueError):
            ClassificationService(classifier, autostart=False, **kwargs)

    def test_empty_series_rejected_at_submit(self, classifier, fleet):
        empty = SnapshotSeries(
            node="VM1",
            timestamps=np.empty(0, dtype=np.float64),
            matrix=np.empty((fleet[0].matrix.shape[0], 0), dtype=np.float64),
        )
        with ClassificationService(classifier) as service:
            with pytest.raises(EmptySeriesError):
                service.submit(empty)


class TestMicroBatching:
    def test_size_trigger_flushes_full_batch(self, classifier, fleet):
        # max_wait_s is far longer than the test budget: only the size
        # trigger can flush, so completion proves it fired.
        with ClassificationService(
            classifier, batch_size=len(fleet), max_wait_s=30.0
        ) as service:
            futures = [service.submit(s) for s in fleet]
            results = [f.result(timeout=10.0) for f in futures]
        expected = [classifier.classify_series(s) for s in fleet]
        for result, exp in zip(results, expected):
            assert np.array_equal(result.class_vector, exp.class_vector)
            assert result.application_class is exp.application_class
        assert service.stats.batches == 1
        assert service.stats.completed == len(fleet)

    def test_time_trigger_flushes_partial_batch(self, classifier, fleet):
        # Fewer submissions than batch_size: only the wait-window timer
        # can flush this batch.
        with ClassificationService(
            classifier, batch_size=64, max_wait_s=0.02
        ) as service:
            futures = [service.submit(s) for s in fleet[:3]]
            results = [f.result(timeout=10.0) for f in futures]
        assert len(results) == 3
        assert service.stats.completed == 3
        assert service.stats.batches >= 1

    def test_stats_snapshot(self, classifier, fleet):
        with ClassificationService(classifier, max_wait_s=0.005) as service:
            for s in fleet[:4]:
                service.submit(s)
        stats = service.stats
        assert stats.submitted == 4
        assert stats.completed == 4
        assert stats.failed == 0
        assert stats.rejected == 0
        assert stats.pending == 0


class TestBackpressure:
    def test_full_queue_rejects(self, classifier, fleet):
        service = ClassificationService(classifier, max_queue=4, autostart=False)
        try:
            for s in fleet[:4]:
                service.submit(s)
            with pytest.raises(ServiceOverloadedError):
                service.submit(fleet[4])
            # Dual inheritance: RuntimeError and ReproError both catch.
            with pytest.raises(RuntimeError):
                service.submit(fleet[4])
            with pytest.raises(ReproError):
                service.submit(fleet[4])
            assert service.stats.rejected == 3
            assert service.stats.submitted == 4
        finally:
            service.start()
            service.shutdown()
        assert service.stats.completed == 4

    def test_submit_after_shutdown_raises(self, classifier, fleet):
        service = ClassificationService(classifier)
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(fleet[0])


class TestBatchFailure:
    def test_exception_mid_batch_fails_every_waiter_and_worker_keeps_serving(
        self, classifier, fleet
    ):
        service = ClassificationService(classifier, batch_size=3, autostart=False)
        try:
            futures = [service.submit(s) for s in fleet[:3]]
            # An untrained classifier makes the worker's classify_batch
            # raise NotTrainedError for the whole three-request batch.
            service.batch.classifier = ApplicationClassifier()
            service.start()
            for future in futures:
                with pytest.raises(NotTrainedError):
                    future.result(timeout=10.0)
            service.batch.classifier = classifier
            result = service.submit(fleet[3]).result(timeout=10.0)
            assert result.num_samples == len(fleet[3])
        finally:
            stopper = threading.Thread(target=service.shutdown)
            stopper.start()
            stopper.join(10.0)
        assert not stopper.is_alive()
        stats = service.stats
        assert (stats.failed, stats.completed, stats.batches) == (3, 1, 2)


class TestShutdown:
    def test_drain_completes_pending(self, classifier, fleet):
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet]
        service.start()
        service.shutdown(drain=True)
        for future in futures:
            assert future.result(timeout=0).application_class is not None
        assert service.stats.completed == len(fleet)
        assert service.stats.pending == 0

    def test_no_drain_fails_pending(self, classifier, fleet):
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet]
        service.shutdown(drain=False)
        for future in futures:
            with pytest.raises(ServiceOverloadedError):
                future.result(timeout=0)
        assert service.stats.failed == len(fleet)

    def test_drain_of_never_started_service_fails_queued(self, classifier, fleet):
        # No worker ever ran, so draining has nobody to serve the queue:
        # every queued request fails instead of hanging its caller.
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet[:3]]
        closer = threading.Thread(target=service.shutdown, kwargs={"drain": True}, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "shutdown(drain=True) hung"
        for future in futures:
            with pytest.raises(ServiceOverloadedError):
                future.result(timeout=5.0)
        stats = service.stats
        assert (stats.failed, stats.batches, stats.pending) == (3, 0, 0)

    def test_shutdown_idempotent(self, classifier):
        service = ClassificationService(classifier)
        service.shutdown()
        service.shutdown()

    def test_start_after_shutdown_raises(self, classifier):
        service = ClassificationService(classifier)
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.start()

    def test_no_deadlock_under_saturation(self, classifier, fleet):
        # Submit far more than the queue holds, from the caller thread,
        # while one worker drains: every accepted request completes and
        # the service shuts down within the test budget.
        service = ClassificationService(
            classifier, batch_size=4, max_wait_s=0.001, max_queue=4
        )
        accepted, rejected = [], 0
        deadline = time.monotonic() + 10.0
        for _ in range(5):
            for s in fleet:
                assert time.monotonic() < deadline
                try:
                    accepted.append(service.submit(s))
                except ServiceOverloadedError:
                    rejected += 1
        service.shutdown(drain=True)
        for future in accepted:
            assert future.result(timeout=0) is not None
        stats = service.stats
        assert stats.completed == len(accepted)
        assert stats.rejected == rejected
        assert stats.pending == 0


class TestWorkers:
    def test_multiple_workers(self, classifier, fleet):
        with ClassificationService(
            classifier, workers=3, batch_size=2, max_wait_s=0.001
        ) as service:
            futures = [service.submit(s) for s in fleet]
            for future in futures:
                future.result(timeout=10.0)
        assert service.stats.completed == len(fleet)


class TestConcurrentShutdown:
    def test_concurrent_shutdown_callers_all_wait_for_drain(self, classifier, fleet):
        service = ClassificationService(classifier, batch_size=4)
        futures = [service.submit(s) for s in fleet]
        barrier = threading.Barrier(4, timeout=10.0)

        def closer():
            barrier.wait()
            service.shutdown(drain=True)
            # shutdown returned => the drain is fully finished, no matter
            # which caller actually performed it.
            assert all(f.done() for f in futures)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert service.stats.completed == len(fleet)
        assert service.stats.pending == 0

    def test_submit_shutdown_race_strands_no_future(self, classifier, fleet):
        # submit() checks _stopping and enqueues atomically: a request
        # accepted during a concurrent drain must still complete instead
        # of slipping into the queue after the workers were told to stop.
        service = ClassificationService(classifier)
        series = fleet[0]
        accepted = []

        def submitter():
            while True:
                try:
                    accepted.append(service.submit(series))
                except RuntimeError:
                    return
                except ServiceOverloadedError:
                    time.sleep(0.001)

        thread = threading.Thread(target=submitter)
        thread.start()
        time.sleep(0.05)
        service.shutdown(drain=True)
        thread.join(30.0)
        assert not thread.is_alive()
        for future in accepted:
            assert future.result(timeout=10.0) is not None
