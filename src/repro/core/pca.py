"""Principal Component Analysis, implemented from scratch (paper §3, §4.2.2).

PCA finds the best linear directions through the mean of the samples: the
eigenvectors of the scatter (covariance) matrix, whose eigenvalues give
each direction's contribution to the variance.  Keeping the ``q`` largest
reduces the feature space from ``p`` to ``q`` dimensions while preserving
the maximum amount of variance.

The paper selects components by a *minimal fraction of variance*
threshold, set in their experiments so that exactly ``q = 2`` components
are extracted (for cheap classification and 2-D cluster diagrams).  Both
selection modes are supported here: an explicit component count and a
variance-fraction threshold.

Implementation notes (per the HPC guides): the covariance matrix is
``p×p`` with ``p = 8``, so a symmetric eigendecomposition
(``scipy.linalg.eigh`` / LAPACK *syevd*) is both the fastest and the most
numerically stable route — no general SVD of the full data matrix is
needed.  A deterministic sign convention makes results reproducible
across BLAS builds.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .preprocessing import _check_matrix


def check_component_rule(n_components: int | None, min_variance_fraction: float | None) -> None:
    """Validate a component-selection rule (shared with ``IncrementalPCA`` and ``ClassifierConfig``).

    Raises ``ValueError`` unless exactly one of the two is given, the
    count is at least 1, and the fraction lies in (0, 1].
    """
    if (n_components is None) == (min_variance_fraction is None):
        raise ValueError("specify exactly one of n_components / min_variance_fraction")
    if n_components is not None and n_components < 1:
        raise ValueError("n_components must be >= 1")
    if min_variance_fraction is not None and not 0.0 < min_variance_fraction <= 1.0:
        raise ValueError("min_variance_fraction must be in (0, 1]")


def extract_components(
    cov: np.ndarray, n_components: int | None, min_variance_fraction: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal directions of a ``p×p`` covariance under a selection rule.

    dtype: float64

    Returns every eigenvalue (descending, clipped at 0), the kept
    ``(q, p)`` orthonormal directions, and the kept eigenvalues over
    the total variance.  *q* is *n_components*, or else the fewest
    components whose cumulative variance ratio reaches
    *min_variance_fraction* (the paper's rule).  Raises ``ValueError``
    if *n_components* exceeds ``p``.
    """
    p = cov.shape[0]
    if n_components is not None and n_components > p:
        raise ValueError(f"cannot keep {n_components} components of {p} features")
    eigenvalues, eigenvectors = scipy.linalg.eigh(cov)
    # eigh returns ascending order; we want descending.
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    total = eigenvalues.sum()
    if n_components is not None:
        q = n_components
    elif total <= 0:
        q = 1
    else:
        cumulative = np.cumsum(eigenvalues) / total
        q = int(np.searchsorted(cumulative, min_variance_fraction - 1e-12) + 1)
    components = eigenvectors[:, :q].T
    # Deterministic sign: largest-magnitude loading of each component
    # is positive.
    signs = np.sign(components[np.arange(q), np.argmax(np.abs(components), axis=1)])
    signs[signs == 0] = 1.0
    ratio = eigenvalues[:q] / total if total > 0 else np.zeros(q)
    return eigenvalues, components * signs[:, None], ratio

class PCA:
    """Principal component analysis via scatter-matrix eigendecomposition.

    Parameters
    ----------
    n_components:
        Number of components ``q`` to keep.  Mutually exclusive with
        *min_variance_fraction*.
    min_variance_fraction:
        Keep the smallest number of components whose cumulative explained
        variance ratio reaches this threshold (the paper's selection
        rule).

    Attributes
    ----------
    components_:
        ``(q, p)`` array; rows are orthonormal principal directions,
        ordered by decreasing explained variance.
    explained_variance_:
        Eigenvalues of the kept components.
    explained_variance_ratio_:
        Eigenvalues normalized by the total variance.
    mean_:
        Per-feature training mean subtracted before projection.
    """

    def __init__(
        self,
        n_components: int | None = None,
        min_variance_fraction: float | None = None,
    ) -> None:
        check_component_rule(n_components, min_variance_fraction)
        self.n_components = n_components
        self.min_variance_fraction = min_variance_fraction
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None
        self.mean_: np.ndarray | None = None
        self._all_eigenvalues: np.ndarray | None = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray) -> "PCA":
        """Fit on an ``(m, p)`` samples×features matrix.

        dtype: float64

        The fit is dtype-preserving at the interface: the eigensolve
        always runs at float64 (covariance accumulation and LAPACK
        *syevd* stay well-conditioned, and both compute modes therefore
        select identical component counts), while ``mean_`` and
        ``components_`` — the transform-time operands — are stored at
        the input's float dtype.  A float64 input round-trips through
        no-op casts, keeping the reference mode bit-identical.

        Raises
        ------
        ValueError
            If fewer than 2 samples are given, or the requested component
            count exceeds the feature dimension.
        """
        x = _check_matrix(x, dtype=None)
        out_dtype = x.dtype
        x = x.astype(np.float64, copy=False)
        m = x.shape[0]
        if m < 2:
            raise ValueError("PCA needs at least 2 samples")
        mean = x.mean(axis=0)
        centered = x - mean
        # Scatter matrix normalized in place to the (m-1) covariance
        # estimator (identical values, one fewer p×p temporary).
        cov = centered.T @ centered
        cov /= m - 1
        eigenvalues, components, ratio = extract_components(
            cov, self.n_components, self.min_variance_fraction
        )
        self._all_eigenvalues = eigenvalues
        self.mean_ = mean.astype(out_dtype, copy=False)
        self.components_ = components.astype(out_dtype, copy=False)
        self.explained_variance_ = eigenvalues[: components.shape[0]]
        self.explained_variance_ratio_ = ratio
        return self

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has extracted components."""
        return self.components_ is not None

    @property
    def n_components_(self) -> int:
        """Number of components actually kept.

        Raises
        ------
        RuntimeError
            Before fitting.
        """
        if self.components_ is None:
            raise RuntimeError("PCA not fitted")
        return self.components_.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project ``(m, p)`` data to the ``(m, q)`` component space.

        Raises
        ------
        RuntimeError
            Before fitting.
        ValueError
            On feature-dimension mismatch.
        """
        if self.components_ is None or self.mean_ is None:
            raise RuntimeError("PCA.transform called before fit")
        x = _check_matrix(x, dtype=self.mean_.dtype)
        if x.shape[1] != self.mean_.shape[0]:
            raise ValueError(f"expected {self.mean_.shape[0]} features, got {x.shape[1]}")
        return (x - self.mean_) @ self.components_.T

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``(m, p)`` data *x* and return its ``(m, q)`` projection."""
        return self.fit(x).transform(x)

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map ``(m, q)`` component-space points back to ``(m, p)`` feature space (lossy)."""
        if self.components_ is None or self.mean_ is None:
            raise RuntimeError("PCA.inverse_transform called before fit")
        z = np.asarray(z, dtype=self.components_.dtype)
        if z.ndim != 2 or z.shape[1] != self.components_.shape[0]:
            raise ValueError(
                f"expected (m, {self.components_.shape[0]}) scores, got {z.shape}"
            )
        return z @ self.components_ + self.mean_

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error of ``(m, p)`` data *x* through the projection.

        dtype: float64
        """
        recon = self.inverse_transform(self.transform(x))
        return float(np.mean((np.asarray(x, dtype=np.float64) - recon) ** 2))

    def total_variance(self) -> float:
        """Sum of all eigenvalues of the fitted covariance."""
        if self._all_eigenvalues is None:
            raise RuntimeError("PCA not fitted")
        return float(self._all_eigenvalues.sum())
