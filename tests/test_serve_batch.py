"""Batch/sequential bit-identity of the vectorized serving kernel."""

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import ApplicationClassifier
from repro.errors import EmptySeriesError, NotTrainedError
from repro.experiments.fleet import profile_fleet
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier
from repro.sim.execution import profiled_run
from repro.vm.resources import ResourceDemand
from repro.workloads.base import constant_workload


@pytest.fixture(scope="module")
def fleet():
    """32 seeded short runs plus one single-snapshot run (33 total)."""
    series_list = profile_fleet(32, seed=100)
    tiny = profiled_run(
        constant_workload("tiny", ResourceDemand(cpu_user=0.9, mem_mb=20.0), 5.0),
        seed=9,
    ).series
    assert len(tiny) == 1
    return series_list + [tiny]


@pytest.fixture(scope="module")
def batch(classifier):
    return BatchClassifier(classifier)


class TestParity:
    def test_bit_identical_to_sequential(self, classifier, batch, fleet):
        sequential = [classifier.classify_series(s) for s in fleet]
        batched = batch.classify_batch(fleet)
        assert len(batched) == len(fleet)
        for seq, bat in zip(sequential, batched):
            assert np.array_equal(seq.class_vector, bat.class_vector)
            assert np.array_equal(seq.scores, bat.scores)
            assert seq.composition == bat.composition
            assert seq.application_class is bat.application_class
            assert seq.category == bat.category
            assert seq.num_samples == bat.num_samples
            assert seq.node == bat.node

    def test_order_preserved(self, batch, fleet):
        results = batch.classify_batch(fleet)
        for series, result in zip(fleet, results):
            assert result.node == series.node
            assert result.num_samples == len(series)

    def test_single_run_batch(self, classifier, batch, fleet):
        (result,) = batch.classify_batch(fleet[:1])
        expected = classifier.classify_series(fleet[0])
        assert np.array_equal(result.class_vector, expected.class_vector)
        assert np.array_equal(result.scores, expected.scores)

    def test_results_are_independent_copies(self, batch, fleet):
        results = batch.classify_batch(fleet[:2])
        results[0].class_vector[:] = -1
        results[0].scores[:] = 0.0
        # Results of one call are disjoint slices of the call's own arrays.
        assert results[1].class_vector.min() >= 0
        assert not np.shares_memory(results[0].scores, results[1].scores)
        again = batch.classify_batch(fleet[:2])
        assert again[1].class_vector.min() >= 0
        assert not np.shares_memory(results[1].class_vector, again[1].class_vector)


class TestTimings:
    def test_timings_sum_to_batch_totals(self, batch, fleet):
        results = batch.classify_batch(fleet)
        for stage in ("preprocess_s", "pca_s", "classify_s", "vote_s"):
            total = sum(getattr(r.timings, stage) for r in results)
            assert total >= 0.0
        assert results[0].timings.total_s >= 0.0

    def test_series_is_the_one_run_batch_under_a_tick_clock(self, classifier, fleet, monkeypatch):
        """classify_series and a one-run batch read the same clock, the same way."""
        reads = []

        def tick():
            reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(classifier, "clock", tick)
        series = fleet[0]
        timings = classifier.classify_series(series).timings
        off_reads = len(reads)
        assert off_reads == 6  # one before the gather, one after each stage
        assert timings == BatchClassifier(classifier).classify_batch([series])[0].timings
        del reads[:]
        obs.enable()
        try:
            traced_timings = classifier.classify_series(series).timings
        finally:
            obs.disable()
        assert traced_timings == timings
        # Obs adds only the pipeline.classify span's own entry and exit
        # reads; the pipeline reads the clock the same number of times.
        assert len(reads) - 2 == off_reads


class TestRejection:
    def test_empty_input_returns_empty(self, batch):
        assert batch.classify_batch([]) == []

    def test_empty_series_rejects_whole_batch(self, batch, fleet):
        empty = SnapshotSeries(
            node=fleet[0].node,
            timestamps=np.empty(0, dtype=np.float64),
            matrix=np.empty((fleet[0].matrix.shape[0], 0), dtype=np.float64),
        )
        with pytest.raises(EmptySeriesError):
            batch.classify_batch([fleet[0], empty])
        # Dual inheritance: pre-1.1 except ValueError still catches.
        with pytest.raises(ValueError):
            batch.classify_batch([empty])

    def test_untrained_classifier_rejected(self):
        with pytest.raises(NotTrainedError):
            BatchClassifier(ApplicationClassifier())
        with pytest.raises(RuntimeError):
            BatchClassifier(ApplicationClassifier())
