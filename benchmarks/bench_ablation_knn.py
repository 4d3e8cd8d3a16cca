"""Ablation — k in the k-NN vote.

The paper uses k = 3 (citing Kapadia's finding that nearest-neighbor
methods work well for this domain).  This bench sweeps odd k and
measures held-out snapshot accuracy plus prediction throughput.
"""

import numpy as np
import pytest

from repro.analysis.reports import format_table
from repro.core.config import ClassifierConfig
from repro.experiments.ablation import holdout_accuracy

from conftest import emit


@pytest.fixture(scope="module")
def sweep(training_outcome):
    return {k: holdoutacc(training_outcome, k) for k in (1, 3, 5, 7, 9)}


def holdoutacc(training_outcome, k):
    return holdout_accuracy(training_outcome, ClassifierConfig(n_components=2, k=k))


def test_ablation_knn_regenerate(benchmark, training_outcome, sweep, out_dir):
    benchmark.pedantic(
        holdoutacc, args=(training_outcome, 3), rounds=1, iterations=1
    )
    rows = [[str(k), f"{p.accuracy * 100:.1f}%"] for k, p in sweep.items()]
    emit(
        out_dir,
        "ablation_knn.txt",
        "Ablation: k-NN neighbor count (held-out snapshot accuracy)\n"
        + format_table(["k", "accuracy"], rows),
    )


def test_ablation_k3_competitive(sweep):
    """The paper's k = 3 is within 2 points of the best k."""
    best = max(p.accuracy for p in sweep.values())
    assert best - sweep[3].accuracy < 0.02


def test_ablation_all_k_reasonable(sweep):
    """The classifier is robust to k — no configuration collapses."""
    assert all(p.accuracy > 0.8 for p in sweep.values())


def test_weighted_voting_variant(training_outcome, out_dir):
    """Distance-weighted voting (extension) vs the paper's plain majority."""
    from repro.core.pipeline import ApplicationClassifier
    from repro.experiments.ablation import split_series
    import numpy as np

    # Rebuild the holdout evaluation with a weighted-kNN pipeline.
    train_data, test_sets = [], []
    for key, run in training_outcome.runs.items():
        label = training_outcome.labels[key]
        train, test = split_series(run.series)
        train_data.append((train, label))
        test_sets.append((test, label))
    plain = ApplicationClassifier(ClassifierConfig(k=3))
    plain.knn.weighted = False
    plain.train(train_data)
    weighted = ApplicationClassifier(ClassifierConfig(k=3))
    weighted.knn.weighted = True
    weighted.train(train_data)

    def acc(clf):
        correct = total = 0
        for series, label in test_sets:
            result = clf.classify_series(series)
            correct += int(np.sum(result.class_vector == int(label)))
            total += result.num_samples
        return correct / total

    acc_plain, acc_weighted = acc(plain), acc(weighted)
    emit(
        out_dir,
        "ablation_knn_weighted.txt",
        "Ablation: plain vs distance-weighted 3-NN voting\n"
        + format_table(
            ["variant", "accuracy"],
            [["plain majority (paper)", f"{acc_plain * 100:.1f}%"],
             ["distance-weighted", f"{acc_weighted * 100:.1f}%"]],
        ),
    )
    # Both competitive; the paper's simple vote loses little.
    assert abs(acc_plain - acc_weighted) < 0.05


def test_knn_prediction_throughput(benchmark, classifier):
    """Vectorized 3-NN classifies thousands of snapshots per millisecond."""
    rng = np.random.default_rng(0)
    probes = rng.normal(0, 2, size=(5000, 2))
    preds = benchmark(classifier.knn.predict_rows, probes)
    assert preds.shape == (5000,)
