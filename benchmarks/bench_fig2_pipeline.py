"""Figure 2 — the dimension-reduction pipeline 33 → 8 → 2 → 1.

Benchmarks each stage of the classification pipeline on a profiled
SPECseis96 run, and the end-to-end path, verifying the dimensionality at
every step matches the paper's Figure 2 (n=33, p=8, q=2, class vector,
majority vote).
"""

import pytest

from repro.core.labels import SnapshotClass, majority_vote
from repro.sim.execution import profiled_run
from repro.workloads.cpu import specseis96

from conftest import emit


@pytest.fixture(scope="module")
def seis_run():
    return profiled_run(specseis96("small"), seed=200)


def test_fig2_preprocess_stage(benchmark, classifier, seis_run):
    """A(33×m) → A'(8×m): expert selection + normalization."""
    features = benchmark(classifier.preprocessor.transform_series, seis_run.series)
    assert seis_run.series.matrix.shape[0] == 33
    assert features.shape == (len(seis_run.series), 8)


def test_fig2_pca_stage(benchmark, classifier, seis_run):
    """A'(8×m) → B(2×m): PCA projection."""
    features = classifier.preprocessor.transform_series(seis_run.series)
    scores = benchmark(classifier.project_rows, features)
    assert scores.shape == (len(seis_run.series), 2)


def test_fig2_classify_stage(benchmark, classifier, seis_run):
    """B(2×m) → C(1×m): 3-NN snapshot classification."""
    features = classifier.preprocessor.transform_series(seis_run.series)
    scores = classifier.project_rows(features)
    class_vector = benchmark(classifier.knn.predict_rows, scores)
    assert class_vector.shape == (len(seis_run.series),)


def test_fig2_vote_stage(benchmark, classifier, seis_run):
    """C(1×m) → Class: majority vote."""
    features = classifier.preprocessor.transform_series(seis_run.series)
    scores = classifier.project_rows(features)
    class_vector = classifier.knn.predict_rows(scores)
    app_class = benchmark(majority_vote, class_vector)
    assert app_class is SnapshotClass.CPU


def test_fig2_end_to_end(benchmark, classifier, seis_run, out_dir):
    result = benchmark(classifier.classify_series, seis_run.series)
    assert result.application_class is SnapshotClass.CPU
    emit(
        out_dir,
        "fig2_pipeline.txt",
        "Figure 2: dimension reduction on a SPECseis96 (small) run\n"
        f"  n = 33 metrics, m = {result.num_samples} snapshots\n"
        f"  33 -> 8 (expert) -> 2 (PCA) -> class vector -> {result.application_class.name}\n"
        f"  per-sample cost: {result.timings.per_sample_ms(result.num_samples):.4f} ms",
    )
