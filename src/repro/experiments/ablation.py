"""Ablation support: held-out snapshot accuracy for classifier variants.

The paper fixes its design points (8 expert metrics, q = 2 components,
k = 3) by expert judgment; the ablation benches quantify them.  Ground
truth comes from the training applications themselves: each run's
snapshots carry that application's class, the even-indexed snapshots
train a classifier variant, and the odd-indexed snapshots evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import ClassifierConfig
from ..core.labels import SnapshotClass
from ..core.pipeline import ApplicationClassifier
from ..metrics.series import SnapshotSeries
from .training import TrainingOutcome


def split_series(series: SnapshotSeries) -> tuple[SnapshotSeries, SnapshotSeries]:
    """Split a series into even-indexed (train) and odd-indexed (test) halves.

    Raises
    ------
    ValueError
        If the series has fewer than 2 snapshots.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 snapshots to split")
    train = SnapshotSeries(
        node=series.node,
        timestamps=series.timestamps[0::2],
        matrix=series.matrix[:, 0::2],
    )
    test = SnapshotSeries(
        node=series.node,
        timestamps=series.timestamps[1::2],
        matrix=series.matrix[:, 1::2],
    )
    return train, test


@dataclass(frozen=True)
class AblationPoint:
    """One configuration's held-out evaluation."""

    description: str
    accuracy: float
    n_components: int
    k: int
    n_metrics: int


def holdout_accuracy(outcome: TrainingOutcome, config: ClassifierConfig | None = None) -> AblationPoint:
    """Train a classifier variant on half the snapshots, test on the rest.

    The variant is built from *config* (default: the paper's).  Returns
    the snapshot-level accuracy over all five training classes.
    """
    train_data: list[tuple[SnapshotSeries, SnapshotClass]] = []
    test_sets: list[tuple[SnapshotSeries, SnapshotClass]] = []
    for key, run in outcome.runs.items():
        label = outcome.labels[key]
        train, test = split_series(run.series)
        train_data.append((train, label))
        test_sets.append((test, label))

    clf = ApplicationClassifier(config)
    clf.train(train_data)

    correct = 0
    total = 0
    for series, label in test_sets:
        result = clf.classify_series(series)
        correct += int(np.sum(result.class_vector == int(label)))
        total += result.num_samples
    q, k, p = clf.pca.n_components_, clf.knn.k, clf.preprocessor.selector.dimension
    return AblationPoint(f"q={q}, k={k}, p={p}", correct / total, n_components=q, k=k, n_metrics=p)
