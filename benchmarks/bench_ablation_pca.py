"""Ablation — PCA dimensionality q.

The paper sets the variance threshold to extract exactly q = 2
components "to reduce the computational requirements of the classifier".
This bench sweeps q from 1 to 8 and measures held-out snapshot accuracy
and classification cost, quantifying the accuracy/cost trade the paper
made.
"""

import time

import numpy as np
import pytest

from repro.core.config import ClassifierConfig
from repro.experiments.ablation import holdout_accuracy
from repro.analysis.reports import format_table

from conftest import emit


@pytest.fixture(scope="module")
def sweep(training_outcome):
    points = []
    for q in range(1, 9):
        t = time.perf_counter()
        point = holdout_accuracy(training_outcome, ClassifierConfig(n_components=q))
        points.append((point, time.perf_counter() - t))
    return points


def test_ablation_pca_regenerate(benchmark, training_outcome, sweep, out_dir):
    benchmark.pedantic(
        holdout_accuracy, args=(training_outcome, ClassifierConfig(n_components=2)),
        rounds=1, iterations=1,
    )
    rows = [
        [str(p.n_components), f"{p.accuracy * 100:.1f}%", f"{dt * 1000:.0f} ms"]
        for p, dt in sweep
    ]
    emit(
        out_dir,
        "ablation_pca.txt",
        "Ablation: PCA component count q (held-out snapshot accuracy)\n"
        + format_table(["q", "accuracy", "eval time"], rows),
    )


def test_ablation_q2_is_good_enough(sweep):
    """q = 2 (the paper's choice) performs within 3 points of the best q."""
    accs = {p.n_components: p.accuracy for p, _ in sweep}
    assert max(accs.values()) - accs[2] < 0.03


def test_ablation_all_q_within_band(sweep):
    """Every q lands within a few points of the best — the expert-metric
    space is so well conditioned that even q = 1 separates the classes,
    which is exactly why the paper could afford q = 2."""
    accs = {p.n_components: p.accuracy for p, _ in sweep}
    best = max(accs.values())
    assert all(best - a < 0.05 for a in accs.values())


def test_ablation_accuracy_saturates(sweep):
    """Beyond q = 2 the accuracy curve is nearly flat (variance captured)."""
    accs = [p.accuracy for p, _ in sweep]
    assert np.std(accs[1:]) < 0.05
