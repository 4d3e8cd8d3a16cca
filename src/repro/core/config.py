"""Classifier configuration — one frozen, hashable object for all knobs.

The classifier's tuning surface (metric subset, PCA component selection,
``k``, compute dtype, clock) is stated only here: ``ApplicationClassifier``,
``build_trained_classifier``, ``holdout_accuracy`` and ``ResourceManager``
all take a :class:`ClassifierConfig`.  It is:

* **frozen + hashable** — it doubles as the model-cache key in
  :mod:`repro.serve`, so two callers asking for the same configuration
  share one fitted classifier;
* **validated at construction** — the component-selection exclusivity
  and odd-``k`` rules fail fast, before any training run is spent.

The selector is stored as the plain tuple of metric *names* (a
:class:`~repro.core.preprocessing.MetricSelector` is reconstructed on
demand) because the config must stay hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..metrics.catalog import EXPERT_METRIC_NAMES, validate_metric_names
from .pca import check_component_rule
from .preprocessing import MetricSelector

#: A clock is any zero-argument callable returning seconds as a float
#: (same contract as :data:`repro.core.pipeline.Clock`).
Clock = Callable[[], float]


@dataclass(frozen=True)
class ClassifierConfig:
    """Immutable tuning configuration of the application classifier.

    Parameters
    ----------
    metric_names:
        Metric subset, in feature-column order (default: the paper's 8
        expert metrics of Table 1).
    n_components:
        PCA components ``q`` to keep (the paper extracts exactly 2).
        Mutually exclusive with *min_variance_fraction*.
    min_variance_fraction:
        Variance-based component selection, if preferred.
    k:
        Neighbors in the k-NN vote (positive and odd).
    compute_dtype:
        Dtype of the numeric pipeline, ``"float64"`` (default) or
        ``"float32"``.  Float64 is the bit-identical reference mode;
        float32 is the documented tolerance mode (fused one-pass
        projection, all-float32 buffers, ≥99% label agreement on the
        Table-2 corpus — see ``docs/API.md`` § Numeric modes).  Also
        the declared policy the ``repro-qa numerics`` analysis holds
        the kernels to.  Participates in equality/hashing: models
        fitted at different precisions must not share a cache slot.
    clock:
        Injected clock for §5.3 stage timings.  Excluded from
        equality/hashing: two configs that differ only in clock fit the
        same model, so they must share one cache slot.
    """

    metric_names: tuple[str, ...] = EXPERT_METRIC_NAMES
    n_components: int | None = 2
    min_variance_fraction: float | None = None
    k: int = 3
    compute_dtype: str = "float64"
    clock: Clock | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        validate_metric_names(self.metric_names)
        if not self.metric_names:
            raise ValueError("config needs at least one metric name")
        check_component_rule(self.n_components, self.min_variance_fraction)
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be a positive odd number (majority vote)")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', got {self.compute_dtype!r}"
            )

    def selector(self) -> MetricSelector:
        """A fresh :class:`MetricSelector` over :attr:`metric_names`."""
        return MetricSelector(names=self.metric_names)

    def with_clock(self, clock: Clock | None) -> "ClassifierConfig":
        """Copy of this config with *clock* swapped in (same cache key)."""
        return replace(self, clock=clock)
