"""Incremental (online) PCA.

The paper's §5.3 cost measurements argue the classifier is cheap enough
for *online training*.  This module supplies the missing algorithmic
piece: a PCA whose sufficient statistics (sample count, mean, scatter
matrix) are updated batch-by-batch with Chan et al.'s parallel/merge
formulas, so components can be re-extracted at any time without
revisiting old snapshots.  With ``p = 8`` expert metrics the scatter is
8×8 — a constant-time update per batch regardless of history length.

The result is numerically identical (to floating-point round-off) to a
batch :class:`repro.core.pca.PCA` fit on the concatenation of all
batches, which the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from .pca import check_component_rule, extract_components
from .preprocessing import _check_matrix


class IncrementalPCA:
    """PCA over a stream of snapshot batches.

    Parameters
    ----------
    n_components:
        Components to extract, or ``None`` with *min_variance_fraction*.
    min_variance_fraction:
        Variance-threshold selection, as in :class:`repro.core.pca.PCA`.
    """

    def __init__(
        self,
        n_components: int | None = None,
        min_variance_fraction: float | None = None,
    ) -> None:
        check_component_rule(n_components, min_variance_fraction)
        self.n_components = n_components
        self.min_variance_fraction = min_variance_fraction
        self.count_: int = 0
        self.mean_: np.ndarray | None = None
        self._scatter: np.ndarray | None = None  # Σ (x−μ)(x−μ)ᵀ

    # ------------------------------------------------------------------
    # streaming updates
    # ------------------------------------------------------------------
    def partial_fit(self, x: np.ndarray) -> "IncrementalPCA":
        """Fold a new ``(m, p)`` batch into the sufficient statistics.

        Raises
        ------
        ValueError
            On dimension mismatch with earlier batches.
        """
        x = _check_matrix(x)
        m, p = x.shape
        batch_mean = x.mean(axis=0)
        centered = x - batch_mean
        batch_scatter = centered.T @ centered
        if self.mean_ is None:
            self.count_ = m
            self.mean_ = batch_mean
            self._scatter = batch_scatter
            return self
        if p != self.mean_.shape[0]:
            raise ValueError(f"batch has {p} features, expected {self.mean_.shape[0]}")
        assert self._scatter is not None
        n = self.count_
        total = n + m
        delta = batch_mean - self.mean_
        # Chan/parallel merge: cross-term corrects for the mean shift.
        self._scatter = self._scatter + batch_scatter + np.outer(delta, delta) * (n * m / total)
        self.mean_ = self.mean_ + delta * (m / total)
        self.count_ = total
        return self

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _extract(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`~repro.core.pca.extract_components` of the current covariance."""
        if self._scatter is None or self.count_ < 2:
            raise RuntimeError("IncrementalPCA needs at least 2 samples before extraction")
        cov = self._scatter / (self.count_ - 1)
        return extract_components(cov, self.n_components, self.min_variance_fraction)

    @property
    def components_(self) -> np.ndarray:
        """Current ``(q, p)`` principal directions (recomputed on access)."""
        return self._extract()[1]

    @property
    def explained_variance_(self) -> np.ndarray:
        """Eigenvalues of the currently kept components, shape ``(q,)``."""
        eigenvalues, components, _ = self._extract()
        return eigenvalues[: components.shape[0]]

    @property
    def explained_variance_ratio_(self) -> np.ndarray:
        """Kept eigenvalues over total variance, shape ``(q,)``."""
        return self._extract()[2]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project ``(m, p)`` samples×features data onto the ``(m, q)`` space."""
        if self.mean_ is None:
            raise RuntimeError("IncrementalPCA.transform called before any partial_fit")
        x = _check_matrix(x)
        if x.shape[1] != self.mean_.shape[0]:
            raise ValueError(f"expected {self.mean_.shape[0]} features, got {x.shape[1]}")
        return (x - self.mean_) @ self.components_.T
