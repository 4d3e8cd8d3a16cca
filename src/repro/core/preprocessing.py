"""Data preprocessing (paper §4.2.1 and Figure 2, step ``A(n×m) → A'(p×m)``).

Two stages, both fitted on training data and then applied unchanged to
test data:

1. **Expert metric selection** — keep the 8 metrics of Table 1 (four
   pairs, each correlated with one application class, chosen for
   increasing relevance and reducing redundancy).
2. **Normalization** — zero mean, unit variance per metric, so that
   metrics with large natural scales (bytes/s ~ 10⁷) do not dominate the
   PCA scatter or the k-NN distances.

Everything operates on the samples-as-rows layout: ``(m, p)`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import NonFiniteInputError
from ..metrics.catalog import EXPERT_METRIC_NAMES, validate_metric_names
from ..metrics.series import SnapshotSeries


@dataclass
class MetricSelector:
    """Selects a fixed metric subset from snapshot series.

    Parameters
    ----------
    names:
        Metric names to keep, in output-column order.  Defaults to the
        paper's 8 expert metrics.
    """

    names: tuple[str, ...] = EXPERT_METRIC_NAMES

    def __post_init__(self) -> None:
        validate_metric_names(self.names)
        if not self.names:
            raise ValueError("selector needs at least one metric")

    @property
    def dimension(self) -> int:
        """Output feature dimension ``p``."""
        return len(self.names)

    def transform_series(self, series: SnapshotSeries) -> np.ndarray:
        """Return the ``(m, p)`` feature matrix of the selected metrics."""
        return series.feature_matrix(self.names)


class Normalizer:
    """Zero-mean unit-variance normalization, fit on training data.

    Constant metrics (zero variance in the training pool) are scaled by
    1 instead of 0⁻¹ so they contribute nothing to distances rather than
    producing NaNs.

    Parameters
    ----------
    dtype:
        Compute dtype of the fitted statistics and every transform
        buffer — ``float64`` (default, bit-identical reference mode) or
        ``float32`` (the tolerance mode).  Statistics are *accumulated*
        in float64 regardless (mean/std of raw metrics spanning ~10⁷
        need the headroom) and stored at the compute dtype, so both
        modes normalize against the same underlying estimates.
    """

    def __init__(self, dtype: str | np.dtype = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype}")
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has learned mean and scale."""
        return self.mean_ is not None

    def fit(self, x: np.ndarray) -> "Normalizer":
        """Learn per-column mean and standard deviation from ``(m, p)`` data.

        dtype: float64

        Statistics are accumulated at float64 and stored at the
        configured compute dtype (a no-op cast in float64 mode).

        Raises
        ------
        ValueError
            On empty or non-2D input.
        """
        x = _check_matrix(x)
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        # Constant-column guard: relative threshold, so a column of equal
        # large values whose mean subtraction leaves float-rounding residue
        # is treated as constant rather than normalized to ±1.
        constant = std < 1e-9 * np.maximum(1.0, np.abs(mean))
        std[constant] = 1.0
        self.mean_ = mean.astype(self.dtype, copy=False)
        self.scale_ = std.astype(self.dtype, copy=False)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the fitted normalization to ``(m, p)`` samples×features data.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`.
        ValueError
            On dimension mismatch.
        """
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("Normalizer.transform called before fit")
        x = _check_matrix(x, dtype=self.dtype)
        if x.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {x.shape[1]}"
            )
        # One temporary, divided in place (same values as ``(x - μ) / σ``).
        out = x - self.mean_
        out /= self.scale_
        return out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``(m, p)`` data *x* and return its normalized form."""
        return self.fit(x).transform(x)

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Undo the normalization of ``(m, p)`` data (reconstruction diagnostics)."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("Normalizer.inverse_transform called before fit")
        z = _check_matrix(z, dtype=self.dtype)
        # One temporary, shifted in place (same values as ``z·σ + μ``).
        out = z * self.scale_
        out += self.mean_
        return out


@dataclass
class Preprocessor:
    """Expert selection + normalization, as one fitted unit."""

    selector: MetricSelector = field(default_factory=MetricSelector)
    normalizer: Normalizer = field(default_factory=Normalizer)

    def fit(self, training_series: Sequence[SnapshotSeries]) -> "Preprocessor":
        """Fit the normalizer on the pooled training series.

        Raises
        ------
        ValueError
            If no training series are given.
        """
        if not training_series:
            raise ValueError("need at least one training series")
        pooled = np.vstack([self.selector.transform_series(s) for s in training_series])
        self.normalizer.fit(pooled)
        return self

    def transform_series(self, series: SnapshotSeries) -> np.ndarray:
        """Series → normalized ``(m, p)`` feature matrix."""
        return self.normalizer.transform(self.selector.transform_series(series))

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        """Pre-selected raw ``(m, p)`` features → normalized ``(m, p)`` features."""
        return self.normalizer.transform(x)


def _check_matrix(
    x: np.ndarray, dtype: np.dtype | None = np.float64, finite: bool = True
) -> np.ndarray:
    """Coerce *x* to a finite 2-D float matrix.

    dtype: preserve

    *dtype* selects the compute dtype; the float64 default keeps every
    pre-tolerance-mode caller bit-identical.  ``None`` preserves a
    float32/float64 input dtype (anything else is promoted to float64),
    which is how the dtype-preserving kernels (PCA, k-NN) follow the
    dtype of whatever the Normalizer handed them.  ``finite=False``
    leaves the :func:`_check_finite` test to a caller whose next step
    checks finiteness itself.
    """
    if dtype is None:
        got = np.asarray(x).dtype
        dtype = got if got in (np.dtype(np.float64), np.dtype(np.float32)) else np.float64
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D samples×features matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("matrix has no samples")
    if finite:
        _check_finite(x)
    return x


def _check_finite(x: np.ndarray) -> None:
    """Raise :class:`NonFiniteInputError` if float array *x* holds a NaN or an infinity.

    A sum is finite only if every term is, so one reduction clears the
    usual input; a sum that is not finite (a non-finite entry, or finite
    entries whose sum overflows) is settled by the elementwise test.
    """
    if not np.isfinite(x.sum()) and not np.isfinite(x).all():
        raise NonFiniteInputError("matrix contains non-finite values")
