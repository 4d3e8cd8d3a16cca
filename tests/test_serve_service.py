"""Micro-batching, backpressure, and shutdown of the classification service."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import ApplicationClassifier, ClassificationResult
from repro.errors import (
    EmptySeriesError,
    NotTrainedError,
    ReproError,
    ServiceOverloadedError,
)
from repro.experiments.fleet import profile_fleet
from repro.metrics.series import SnapshotSeries
from repro.serve.service import ClassificationService

from tests.conftest import serving, shutdown_within


@pytest.fixture(scope="module")
def fleet():
    return profile_fleet(8, seed=100)


def hold_first_batch(service):
    """Make the worker's first ``classify_batch`` call wait for a release.

    Returns ``(entered, release)`` events: *entered* is set once a worker
    has taken its first batch, and the call proceeds after *release*.
    """
    entered, release = threading.Event(), threading.Event()
    classify = service.batch.classify_batch

    def held(series_list):
        entered.set()
        assert release.wait(10.0), "batch never released"
        return classify(series_list)

    service.batch.classify_batch = held
    return entered, release


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
        with serving(ClassificationService(classifier)) as service:
            with pytest.raises(EmptySeriesError):
                service.submit(empty)


class TestMicroBatching:
    def test_size_trigger_flushes_full_batch(self, classifier, fleet):
        # max_wait_s is far longer than the test budget: only the size
        # trigger can flush, so completion proves it fired.
        with serving(
            ClassificationService(classifier, batch_size=len(fleet), max_wait_s=30.0)
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
        with serving(
            ClassificationService(classifier, batch_size=64, max_wait_s=0.02)
        ) as service:
            futures = [service.submit(s) for s in fleet[:3]]
            results = [f.result(timeout=10.0) for f in futures]
        assert len(results) == 3
        assert service.stats.completed == 3
        assert service.stats.batches >= 1

    def test_stats_snapshot(self, classifier, fleet):
        with serving(ClassificationService(classifier, max_wait_s=0.005)) as service:
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
            shutdown_within(service)
        assert service.stats.completed == 4

    def test_submit_after_shutdown_raises(self, classifier, fleet):
        service = ClassificationService(classifier)
        shutdown_within(service)
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
            shutdown_within(service, 10.0)
        stats = service.stats
        assert (stats.failed, stats.completed, stats.batches) == (3, 1, 2)


class TestShutdown:
    def test_drain_completes_pending(self, classifier, fleet):
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet]
        service.start()
        shutdown_within(service, drain=True)
        for future in futures:
            assert future.result(timeout=0).application_class is not None
        assert service.stats.completed == len(fleet)
        assert service.stats.pending == 0

    def test_no_drain_fails_pending(self, classifier, fleet):
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet]
        shutdown_within(service, drain=False)
        for future in futures:
            with pytest.raises(ServiceOverloadedError):
                future.result(timeout=0)
        assert service.stats.failed == len(fleet)

    def test_drain_of_never_started_service_fails_queued(self, classifier, fleet):
        # No worker ever ran, so draining has nobody to serve the queue:
        # every queued request fails instead of hanging its caller.
        service = ClassificationService(classifier, max_queue=16, autostart=False)
        futures = [service.submit(s) for s in fleet[:3]]
        shutdown_within(service, 10.0, drain=True)
        for future in futures:
            with pytest.raises(ServiceOverloadedError):
                future.result(timeout=5.0)
        stats = service.stats
        assert (stats.failed, stats.batches, stats.pending) == (3, 0, 0)

    def test_drain_closes_an_open_batch_window(self, classifier, fleet):
        service = ClassificationService(classifier, batch_size=16, max_wait_s=30.0)
        future = service.submit(fleet[0])
        time.sleep(0.05)  # the worker opens its window on this request
        shutdown_within(service, 5.0, drain=True)  # not the 30 s window
        assert future.result(timeout=0).num_samples == len(fleet[0])
        assert service.stats.completed == 1

    def test_no_drain_fails_untaken_requests_and_completes_taken_batches(
        self, classifier, fleet
    ):
        # A request counts as taken once a worker has popped its batch:
        # the popped batch completes, everything still queued fails.
        obs.disable()
        service = ClassificationService(classifier, batch_size=2, autostart=False)
        entered, release = hold_first_batch(service)
        futures = [service.submit(s) for s in fleet[:5]]
        service.start()
        assert entered.wait(10.0)
        closer = threading.Thread(target=service.shutdown, kwargs={"drain": False}, daemon=True)
        closer.start()
        for future in futures[2:]:
            with pytest.raises(ServiceOverloadedError):
                future.result(timeout=10.0)
        assert not any(f.done() for f in futures[:2])
        release.set()
        closer.join(10.0)
        assert not closer.is_alive()
        for future, series in zip(futures[:2], fleet):
            assert future.result(timeout=0).num_samples == len(series)
        stats = service.stats
        assert (stats.completed, stats.failed, stats.batches, stats.pending) == (2, 3, 1, 0)

    def test_shutdown_idempotent(self, classifier):
        service = ClassificationService(classifier)
        shutdown_within(service)
        shutdown_within(service)

    def test_start_after_shutdown_raises(self, classifier):
        service = ClassificationService(classifier)
        shutdown_within(service)
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
        shutdown_within(service, drain=True)
        for future in accepted:
            assert future.result(timeout=0) is not None
        stats = service.stats
        assert stats.completed == len(accepted)
        assert stats.rejected == rejected
        assert stats.pending == 0


class TestWorkers:
    def test_multiple_workers(self, classifier, fleet):
        with serving(
            ClassificationService(classifier, workers=3, batch_size=2, max_wait_s=0.001)
        ) as service:
            futures = [service.submit(s) for s in fleet]
            for future in futures:
                future.result(timeout=10.0)
        assert service.stats.completed == len(fleet)


class TestStress:
    def test_more_workers_than_cores_serve_each_request_once(self, classifier, fleet):
        # Short switch interval + more workers than cores: a lost update
        # or a twice-popped request breaks the counts below.
        obs.disable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = ClassificationService(
                classifier,
                batch_size=3,
                max_wait_s=0.001,
                max_queue=8,
                workers=(os.cpu_count() or 1) + 2,
                autostart=False,
            )
            served = []
            classify = service.batch.classify_batch

            def counting(series_list):
                served.append(len(series_list))
                return classify(series_list)

            service.batch.classify_batch = counting
            service.start()
            deadline = time.monotonic() + 30.0
            accepted = [[] for _ in range(3)]

            def submitter(out):
                for s in fleet * 20:
                    while True:
                        assert time.monotonic() < deadline
                        try:
                            out.append((s, service.submit(s)))
                            break
                        except ServiceOverloadedError:
                            time.sleep(0.0005)

            threads = [threading.Thread(target=submitter, args=(out,), daemon=True) for out in accepted]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
            shutdown_within(service, drain=True)
        finally:
            sys.setswitchinterval(interval)
        requests = [r for out in accepted for r in out]
        assert len(requests) == 3 * 20 * len(fleet)
        for series, future in requests:
            assert future.result(timeout=0).num_samples == len(series)
        assert sum(served) == len(requests)
        stats = service.stats
        assert (stats.submitted, stats.completed, stats.failed) == (len(requests), len(requests), 0)


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

        threads = [threading.Thread(target=closer, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert service.stats.completed == len(fleet)
        assert service.stats.pending == 0

    def test_concurrent_shutdowns_return_only_after_workers_exit(self, classifier, fleet):
        obs.disable()
        service = ClassificationService(classifier, batch_size=2, workers=2, autostart=False)
        entered, release = hold_first_batch(service)
        futures = [service.submit(s) for s in fleet[:4]]
        service.start()
        assert entered.wait(10.0)
        workers_alive = []

        def closer():
            service.shutdown(drain=True)
            workers_alive.append([t.is_alive() for t in service._threads])

        closers = [threading.Thread(target=closer, daemon=True) for _ in range(2)]
        for t in closers:
            t.start()
        time.sleep(0.05)
        assert workers_alive == [], "shutdown returned while a batch was in flight"
        release.set()
        for t in closers:
            t.join(10.0)
        assert not any(t.is_alive() for t in closers)
        assert workers_alive == [[False, False], [False, False]]
        assert all(f.result(timeout=0) is not None for f in futures)

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

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        time.sleep(0.05)
        shutdown_within(service, drain=True)
        thread.join(30.0)
        assert not thread.is_alive()
        for future in accepted:
            assert future.result(timeout=10.0) is not None


class TestBatchSeam:
    """The worker classifies through its own ``BatchClassifier``'s public calls.

    Load generators time the service by wrapping ``service.batch``'s
    methods, so a worker that bypassed them would serve requests no
    wrapper saw.
    """

    @staticmethod
    def record(service, name, calls):
        original = getattr(service.batch, name)

        def recording(series_list):
            out = original(series_list)
            calls.append((name, len(series_list), out))
            return out

        setattr(service.batch, name, recording)

    def serve(self, classifier, fleet, name):
        """Serve *fleet*, recording every ``service.batch.<name>`` call."""
        calls = []
        with serving(ClassificationService(classifier, batch_size=4, max_wait_s=0.05)) as service:
            self.record(service, name, calls)
            results = [f.result(timeout=10.0) for f in [service.submit(s) for s in fleet]]
        assert all(isinstance(r, ClassificationResult) for r in results)
        assert [r.num_samples for r in results] == [len(s) for s in fleet]
        assert sum(n for _, n, _ in calls) == len(fleet), f"{name} did not serve every request"
        return calls

    def test_each_call_holds_the_next_accepted_requests_in_order(self, classifier, fleet):
        # Open-loop load generators assign the k-th call's n_k series to
        # the next n_k accepted requests: batches must pop in FIFO order.
        obs.disable()
        service = ClassificationService(classifier, workers=1, batch_size=3, autostart=False)
        position = {id(s): i for i, s in enumerate(fleet)}
        calls = []
        classify = service.batch.classify_batch

        def recording(series_list):
            calls.append([position[id(s)] for s in series_list])
            return classify(series_list)

        service.batch.classify_batch = recording
        for s in fleet[:7]:
            service.submit(s)
        service.start()
        shutdown_within(service)
        assert calls == [[0, 1, 2], [3, 4, 5], [6]]

    def test_untraced_batches_go_through_classify_batch(self, classifier, fleet):
        obs.disable()
        self.serve(classifier, fleet, "classify_batch")

    def test_traced_batches_go_through_classify_batch_traced(self, classifier, fleet):
        obs.enable()
        try:
            calls = self.serve(classifier, fleet, "classify_batch_traced")
        finally:
            obs.disable()
        for _, n, (results, stage_seconds) in calls:
            assert len(results) == n
            assert isinstance(stage_seconds, tuple) and len(stage_seconds) == 5
            assert all(isinstance(s, float) and s >= 0.0 for s in stage_seconds)
