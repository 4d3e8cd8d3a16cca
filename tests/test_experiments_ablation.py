"""Tests for the ablation helper (held-out accuracy evaluation)."""

import numpy as np
import pytest

from repro.core.config import ClassifierConfig
from repro.experiments.ablation import holdout_accuracy, split_series
from repro.metrics.catalog import NUM_METRICS
from repro.metrics.series import SnapshotSeries


def make_series(m=10):
    return SnapshotSeries(
        node="n",
        timestamps=np.arange(1, m + 1, dtype=float),
        matrix=np.arange(NUM_METRICS * m, dtype=float).reshape(NUM_METRICS, m),
    )


class TestSplitSeries:
    def test_even_odd_partition(self):
        series = make_series(10)
        train, test = split_series(series)
        assert len(train) == 5
        assert len(test) == 5
        assert np.array_equal(train.timestamps, series.timestamps[0::2])
        assert np.array_equal(test.matrix, series.matrix[:, 1::2])

    def test_odd_length(self):
        train, test = split_series(make_series(7))
        assert len(train) == 4
        assert len(test) == 3

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            split_series(make_series(1))

    def test_halves_cover_everything(self):
        series = make_series(8)
        train, test = split_series(series)
        merged = sorted(train.timestamps.tolist() + test.timestamps.tolist())
        assert merged == series.timestamps.tolist()


class TestHoldoutAccuracy:
    def test_paper_configuration_accuracy(self, training_outcome):
        point = holdout_accuracy(training_outcome, ClassifierConfig(n_components=2, k=3))
        assert point.accuracy > 0.9
        assert point.n_components == 2
        assert point.k == 3
        assert point.n_metrics == 8

    def test_custom_selector_dimension_reported(self, training_outcome):
        point = holdout_accuracy(
            training_outcome,
            ClassifierConfig(metric_names=("cpu_user", "io_bi", "bytes_out", "swap_in")),
        )
        assert point.n_metrics == 4
        assert point.accuracy > 0.7

    def test_description_mentions_configuration(self, training_outcome):
        point = holdout_accuracy(training_outcome, ClassifierConfig(n_components=3, k=5))
        assert "q=3" in point.description
        assert "k=5" in point.description
