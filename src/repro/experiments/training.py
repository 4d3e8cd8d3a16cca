"""Training-run driver: build the trained classifier the paper's way.

Profiles each training application (PostMark, SPECseis96, Pagebench,
Ettcp, and the idle state) in a dedicated VM, labels every snapshot with
the application's class, and fits the PCA + 3-NN pipeline on the pooled
data (paper §4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ClassifierConfig
from ..core.labels import SnapshotClass
from ..core.pipeline import ApplicationClassifier
from ..core.preprocessing import MetricSelector
from ..sim.execution import RunResult, profiled_run
from ..workloads.catalog import CatalogEntry, training_entries


@dataclass
class TrainingOutcome:
    """The trained classifier plus the profiling runs that fed it."""

    classifier: ApplicationClassifier
    runs: dict[str, RunResult] = field(default_factory=dict)
    labels: dict[str, SnapshotClass] = field(default_factory=dict)

    def total_training_samples(self) -> int:
        return sum(len(r.series) for r in self.runs.values())


def profile_training_entry(entry: CatalogEntry, seed: int = 0) -> RunResult:
    """Profile one training application in its configured VM."""
    return profiled_run(entry.build(), vm_mem_mb=entry.vm_mem_mb, seed=seed)


def build_trained_classifier(
    seed: int = 0,
    *,
    n_components: int | None = 2,
    min_variance_fraction: float | None = None,
    k: int = 3,
    selector: MetricSelector | None = None,
    config: ClassifierConfig | None = None,
) -> TrainingOutcome:
    """Run all five training profiles and train the classifier.

    Tuning parameters are keyword-only and mirror
    :class:`~repro.core.pipeline.ApplicationClassifier`; the defaults
    reproduce the paper's configuration (8 expert metrics, q = 2
    components, 3-NN).  A *config* supersedes the scattered kwargs — it
    is the one-object form the serving layer caches on.
    """
    if config is not None:
        classifier = ApplicationClassifier.from_config(config)
    else:
        classifier = ApplicationClassifier(
            selector=selector,
            n_components=n_components,
            min_variance_fraction=min_variance_fraction,
            k=k,
        )
    outcome = TrainingOutcome(classifier=classifier)
    training_data = []
    for i, entry in enumerate(training_entries()):
        assert entry.training_class is not None
        label = SnapshotClass.from_label(entry.training_class)
        run = profile_training_entry(entry, seed=seed + i)
        outcome.runs[entry.key] = run
        outcome.labels[entry.key] = label
        training_data.append((run.series, label))
    classifier.train(training_data)
    return outcome
