"""Tests for the end-to-end classifier pipeline (paper Figure 2)."""

import copy
import dataclasses
import pickle
from operator import attrgetter

import numpy as np
import pytest

from repro import obs
from repro.errors import NonFiniteInputError
from repro.core.config import ClassifierConfig
from repro.core.labels import SnapshotClass
from repro.core.pipeline import ApplicationClassifier, StageTimings
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
        clf = ApplicationClassifier(ClassifierConfig(n_components=None, min_variance_fraction=0.99))
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
        results = [trained.classify_series(series[0])] + list(BatchClassifier(trained).classify_batch(series))
        for result, x in zip(results, raw[:1] + raw):
            scores = trained.project_rows(trained.normalize_rows(x))
            assert np.array_equal(result.scores.view(np.uint64), scores.view(np.uint64))
            assert np.array_equal(result.class_vector, trained.classify_rows(x))

    def test_custom_selector(self):
        clf = ApplicationClassifier(
            ClassifierConfig(metric_names=("cpu_user", "io_bi", "bytes_out", "swap_in"))
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


def _zero_clock() -> float:
    """A picklable stand-in clock: every timing is 0.0, so copies time alike."""
    return 0.0


def assert_same_results(got, want):
    """Every result field equal; arrays to the bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name


class TestCopying:
    """A trained classifier and its batch front end survive pickle and deepcopy once obs has run."""

    COPIES = {
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
        "deepcopy": copy.deepcopy,
    }

    @pytest.fixture(params=["float64", "float32"])
    def clf(self, request):
        clf = ApplicationClassifier(ClassifierConfig(compute_dtype=request.param, clock=_zero_clock))
        return clf.train(synthetic_training())

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("obs_after", ["on", "disabled"])
    def test_copies_classify_to_the_same_bits(self, clf, how, obs_after):
        copier = self.COPIES[how]
        series = [synthetic_series(kind, seed=30 + i) for i, kind in enumerate(("cpu", "io", "net"))]
        batch = BatchClassifier(clf)
        obs.enable()
        try:
            want_series = [clf.classify_series(s) for s in series]
            want_batch = batch.classify_batch(series)
            if obs_after == "disabled":
                obs.disable()
            clf_copy, batch_copy = copier(clf), copier(batch)
        finally:
            obs.disable()
        assert_same_results([clf_copy.classify_series(s) for s in series], want_series)
        assert_same_results(batch_copy.classify_batch(series), want_batch)


FITTED_ARRAYS = (
    "training_scores_",
    "training_labels_",
    "fused_weights_",
    "fused_bias_",
    "pca.components_",
    "pca.mean_",
    "pca.explained_variance_",
    "pca.explained_variance_ratio_",
    "preprocessor.normalizer.mean_",
    "preprocessor.normalizer.scale_",
    "knn.training_points",
)


class TestOneWayIn:
    """Every way to build a classifier from a config fits the same model."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_constructors_fit_identical_models(self, dtype):
        builders = [
            lambda: ApplicationClassifier(ClassifierConfig(compute_dtype=dtype)),
            lambda: ApplicationClassifier.from_config(ClassifierConfig(compute_dtype=dtype)),
        ]
        if dtype == "float64":
            builders.append(ApplicationClassifier)
        models = [build().train(synthetic_training()) for build in builders]
        for clf in models:
            assert clf.config == ClassifierConfig(compute_dtype=dtype)
            assert clf.compute_dtype == dtype
        want = models[0]
        for clf in models[1:]:
            for path in FITTED_ARRAYS:
                got, ref = attrgetter(path)(clf), attrgetter(path)(want)
                assert got.dtype == ref.dtype and got.shape == ref.shape, path
                assert got.tobytes() == ref.tobytes(), path


class TestPickledBefore8:
    """A classifier pickled by 7.x (no ``config`` in its state) still loads."""

    CONFIGS = {
        "default": ClassifierConfig(),
        "tuned": ClassifierConfig(
            metric_names=("cpu_user", "cpu_system", "io_bi", "io_bo", "bytes_out", "swap_in"),
            n_components=None,
            min_variance_fraction=0.99,
            k=5,
            compute_dtype="float32",
            clock=_zero_clock,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_state_without_a_config_unpickles_with_one(self, name):
        config = self.CONFIGS[name]
        clf = ApplicationClassifier(config).train(synthetic_training())
        # The 7.x state: every attribute the classifier had then, no ``config``.
        old = ApplicationClassifier.__new__(ApplicationClassifier)
        old.__dict__.update({key: value for key, value in vars(clf).items() if key != "config"})
        restored = pickle.loads(pickle.dumps(old))
        assert restored.config == config
        assert restored.config.clock is config.clock
        assert restored.clock is clf.clock
        for kind in ("cpu", "io", "mem"):
            series = synthetic_series(kind, seed=50)
            got, want = restored.classify_series(series), clf.classify_series(series)
            assert got.scores.tobytes() == want.scores.tobytes()
            assert np.array_equal(got.class_vector, want.class_vector)
            assert got.application_class is want.application_class


class TestNonFiniteInput:
    """A NaN or inf in the input raises NonFiniteInputError, still a ValueError."""

    @pytest.fixture(params=["float64", "float32"])
    def clf(self, request):
        return ApplicationClassifier(ClassifierConfig(compute_dtype=request.param)).train(synthetic_training())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_classify_call_raises_it(self, clf, bad):
        series = synthetic_series("cpu", seed=40)
        series.matrix[metric_index("cpu_user"), 3] = bad
        rows = series.feature_matrix(clf.preprocessor.selector.names)
        calls = [
            lambda: clf.classify_series(series),
            lambda: BatchClassifier(clf).classify_batch([series]),
            lambda: clf.classify_rows(rows),
        ]
        for call in calls:
            with pytest.raises(NonFiniteInputError, match="non-finite") as caught:
                call()
            assert isinstance(caught.value, ValueError)
