#!/usr/bin/env python3
"""Online classification with incremental PCA and automated feature selection.

The paper's §5.3 argues the pipeline is cheap enough for online training,
and §7 names automated feature selection as future work.  This example
implements both:

* an :class:`~repro.core.incremental.IncrementalPCA` consumes monitoring
  snapshots batch-by-batch as a long SPECseis96 run streams in, and the
  classifier re-projects with the freshest components;
* the relevance/redundancy selector of
  :mod:`repro.core.feature_selection` re-derives an expert-style metric
  subset from labelled training data, without human help.

Run:  python examples/online_classification.py   (~8 s)
"""

import numpy as np

from repro.core.feature_selection import select_features
from repro.core.incremental import IncrementalPCA
from repro.core.knn import KNeighborsClassifier
from repro.core.labels import SnapshotClass
from repro.experiments.training import build_trained_classifier
from repro.metrics.catalog import ALL_METRIC_NAMES, EXPERT_METRIC_NAMES
from repro.metrics.series import merge_feature_matrices
from repro.sim.execution import profiled_run
from repro.workloads.cpu import specseis96


def online_demo(outcome) -> None:
    classifier = outcome.classifier
    print("Streaming a SPECseis96 run through incremental PCA ...")
    run = profiled_run(specseis96("small"), seed=500)
    features = classifier.preprocessor.transform_series(run.series)

    inc = IncrementalPCA(n_components=2)
    knn = KNeighborsClassifier(k=3)
    batch_size = 12
    for start in range(0, features.shape[0], batch_size):
        batch = features[start : start + batch_size]
        inc.partial_fit(batch)
        if inc.count_ >= 24:
            # Re-project the training pool with the current components and
            # classify the newest batch — fully online.
            train_features = np.vstack(
                [
                    classifier.preprocessor.transform_series(r.series)
                    for r in outcome.runs.values()
                ]
            )
            train_labels = np.concatenate(
                [
                    np.full(len(r.series), int(outcome.labels[key]))
                    for key, r in outcome.runs.items()
                ]
            )
            knn.fit(inc.transform(train_features), train_labels)
            preds = knn.predict_rows(inc.transform(batch))
            dominant = SnapshotClass(int(np.bincount(preds, minlength=5).argmax()))
            print(
                f"  after {inc.count_:4d} snapshots: batch classified as "
                f"{dominant.name:4s} (components explain "
                f"{100 * inc.explained_variance_ratio_.sum():.0f}% variance)"
            )


def feature_selection_demo(outcome) -> None:
    print("\nAutomated relevance/redundancy feature selection (paper §7 future work):")
    series = [run.series for run in outcome.runs.values()]
    labels = np.concatenate(
        [np.full(len(r.series), int(outcome.labels[k])) for k, r in outcome.runs.items()]
    )
    x = merge_feature_matrices(series, ALL_METRIC_NAMES)
    result = select_features(x, labels, list(ALL_METRIC_NAMES), max_features=8)
    print(f"  selected ({len(result.selected)}): {', '.join(result.selected)}")
    overlap = set(result.selected) & set(EXPERT_METRIC_NAMES)
    print(f"  overlap with the paper's hand-picked Table 1 metrics: {len(overlap)}/8")
    top = sorted(result.relevance.items(), key=lambda kv: -kv[1])[:10]
    print("  top relevance scores (correlation ratio):")
    for name, eta in top:
        print(f"    {name:14s} {eta:.3f}")


def main() -> None:
    print("Training baseline classifier ...")
    outcome = build_trained_classifier(seed=0)
    online_demo(outcome)
    feature_selection_demo(outcome)


if __name__ == "__main__":
    main()
