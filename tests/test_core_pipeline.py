"""Tests for the end-to-end classifier pipeline (paper Figure 2)."""

import numpy as np
import pytest

from repro.core.labels import SnapshotClass
from repro.core.pipeline import ApplicationClassifier, StageTimings
from repro.core.preprocessing import MetricSelector
from repro.metrics.catalog import NUM_METRICS, metric_index
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier


def synthetic_series(kind: str, m=40, seed=0, node="VM1") -> SnapshotSeries:
    """Gmond-like series with one dominant resource signature."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((NUM_METRICS, m))
    matrix[metric_index("cpu_idle")] = 95.0
    if kind == "cpu":
        matrix[metric_index("cpu_user")] = 90.0 + rng.normal(0, 2, m)
        matrix[metric_index("cpu_system")] = 4.0 + rng.normal(0, 0.5, m)
    elif kind == "io":
        matrix[metric_index("io_bi")] = 500.0 + rng.normal(0, 30, m)
        matrix[metric_index("io_bo")] = 520.0 + rng.normal(0, 30, m)
        matrix[metric_index("cpu_system")] = 12.0 + rng.normal(0, 1, m)
    elif kind == "net":
        matrix[metric_index("bytes_out")] = 4e7 + rng.normal(0, 2e6, m)
        matrix[metric_index("bytes_in")] = 2e6 + rng.normal(0, 1e5, m)
        matrix[metric_index("cpu_system")] = 25.0 + rng.normal(0, 2, m)
    elif kind == "mem":
        matrix[metric_index("swap_in")] = 800.0 + rng.normal(0, 60, m)
        matrix[metric_index("swap_out")] = 700.0 + rng.normal(0, 60, m)
        matrix[metric_index("io_bi")] = 800.0 + rng.normal(0, 60, m)
    elif kind == "idle":
        matrix[metric_index("cpu_user")] = 0.5 + np.abs(rng.normal(0, 0.2, m))
    else:
        raise ValueError(kind)
    matrix = np.abs(matrix)
    return SnapshotSeries(node=node, timestamps=np.arange(1, m + 1) * 5.0, matrix=matrix)


def synthetic_training():
    return [
        (synthetic_series("idle", seed=1), SnapshotClass.IDLE),
        (synthetic_series("io", seed=2), SnapshotClass.IO),
        (synthetic_series("cpu", seed=3), SnapshotClass.CPU),
        (synthetic_series("net", seed=4), SnapshotClass.NET),
        (synthetic_series("mem", seed=5), SnapshotClass.MEM),
    ]


@pytest.fixture(scope="module")
def trained():
    return ApplicationClassifier().train(synthetic_training())


class TestTraining:
    def test_requires_data(self):
        with pytest.raises(ValueError):
            ApplicationClassifier().train([])

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            ApplicationClassifier().train(
                [(synthetic_series("cpu"), SnapshotClass.CPU)]
            )

    def test_trained_flag(self, trained):
        assert trained.trained
        assert not ApplicationClassifier().trained

    def test_training_scores_stored(self, trained):
        assert trained.training_scores_.shape == (200, 2)
        assert trained.training_labels_.shape == (200,)

    def test_paper_dimensions(self, trained):
        """33 → 8 → 2 → 1 (Figure 2)."""
        assert trained.preprocessor.selector.dimension == 8
        assert trained.pca.n_components_ == 2
        assert trained.knn.k == 3

    def test_variance_fraction_mode(self):
        clf = ApplicationClassifier(min_variance_fraction=0.99)
        clf.train(synthetic_training())
        assert clf.pca.n_components_ >= 2


class TestClassification:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("cpu", SnapshotClass.CPU),
            ("io", SnapshotClass.IO),
            ("net", SnapshotClass.NET),
            ("mem", SnapshotClass.MEM),
            ("idle", SnapshotClass.IDLE),
        ],
    )
    def test_pure_series_classified(self, trained, kind, expected):
        result = trained.classify_series(synthetic_series(kind, seed=42))
        assert result.application_class is expected
        assert result.composition.fraction(expected) > 0.9

    def test_result_shape(self, trained):
        result = trained.classify_series(synthetic_series("cpu", m=25, seed=9))
        assert result.num_samples == 25
        assert result.class_vector.shape == (25,)
        assert result.scores.shape == (25, 2)
        assert result.node == "VM1"

    def test_composition_matches_class_vector(self, trained):
        result = trained.classify_series(synthetic_series("io", seed=10))
        counts = np.bincount(result.class_vector, minlength=5)
        assert np.allclose(counts / counts.sum(), result.composition.fractions)

    def test_percent_helper(self, trained):
        result = trained.classify_series(synthetic_series("net", seed=11))
        assert result.percent(SnapshotClass.NET) == pytest.approx(
            100 * result.composition.net
        )

    def test_timings_populated(self, trained):
        result = trained.classify_series(synthetic_series("cpu", seed=12))
        t = result.timings
        assert t.total_s > 0
        assert t.per_sample_ms(result.num_samples) > 0

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            ApplicationClassifier().classify_series(synthetic_series("cpu"))

    def test_classify_snapshot_features(self, trained):
        series = synthetic_series("cpu", seed=13)
        raw = series.feature_matrix(trained.preprocessor.selector.names)
        preds = trained.classify_rows(raw)
        assert (preds == int(SnapshotClass.CPU)).mean() > 0.9

    def test_classify_does_not_walk_the_catalog(self, trained, monkeypatch):
        # The selected-metric index is fixed at train time; classify
        # calls read it, and the results are the classify_rows bits.
        series = [synthetic_series(kind, seed=30 + i) for i, kind in enumerate(("cpu", "io", "net"))]
        names = trained.preprocessor.selector.names
        raw = [s.feature_matrix(names) for s in series]

        def forbidden(_names):
            raise AssertionError("metric_indices called on the classify path")

        monkeypatch.setattr("repro.core.pipeline.metric_indices", forbidden)
        results = [trained.classify_series(series[0])] + BatchClassifier(trained).classify_batch(series)
        for result, x in zip(results, raw[:1] + raw):
            scores = trained.project_rows(trained.normalize_rows(x))
            assert np.array_equal(result.scores.view(np.uint64), scores.view(np.uint64))
            assert np.array_equal(result.class_vector, trained.classify_rows(x))

    def test_custom_selector(self):
        clf = ApplicationClassifier(
            selector=MetricSelector(names=("cpu_user", "io_bi", "bytes_out", "swap_in"))
        )
        clf.train(synthetic_training())
        result = clf.classify_series(synthetic_series("cpu", seed=21))
        assert result.application_class is SnapshotClass.CPU


class TestStageTimings:
    def test_total(self):
        t = StageTimings(preprocess_s=1.0, pca_s=2.0, classify_s=3.0, vote_s=4.0)
        assert t.total_s == 10.0
        assert t.per_sample_ms(100) == pytest.approx(100.0)

    def test_per_sample_validation(self):
        with pytest.raises(ValueError):
            StageTimings().per_sample_ms(0)
