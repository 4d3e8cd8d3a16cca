"""Bit-identity regressions for the allocation-lean kernel rewrites.

The ``repro-qa numerics`` pass drove in-place rewrites of the hot
kernels (Normalizer, PCA covariance, pairwise distances, the batch
gather, and the vectorized mode filter).  Every rewrite claims *bitwise*
equality with the naive expression it replaced — these tests pin that
claim with ``np.array_equal`` against straight-line float64 references,
so a future "optimization" that silently reassociates a sum fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import rowwise_sq_distances
from repro.core.preprocessing import Normalizer
from repro.core.pca import PCA
from repro.core.stages import mode_filter


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestNormalizerBitIdentity:
    def fitted(self):
        x = rng(1).normal(size=(40, 8)) * 100.0
        return Normalizer().fit(x), x

    def test_transform_matches_expression(self):
        norm, _ = self.fitted()
        x = rng(2).normal(size=(23, 8)) * 7.0
        expected = (x - norm.mean_) / norm.scale_
        assert np.array_equal(norm.transform(x), expected)

    def test_transform_does_not_mutate_input(self):
        norm, _ = self.fitted()
        x = rng(3).normal(size=(5, 8))
        before = x.copy()
        norm.transform(x)
        assert np.array_equal(x, before)

    def test_inverse_transform_matches_expression(self):
        norm, _ = self.fitted()
        z = rng(4).normal(size=(23, 8))
        expected = z * norm.scale_ + norm.mean_
        assert np.array_equal(norm.inverse_transform(z), expected)

    def test_inverse_transform_does_not_mutate_input(self):
        norm, _ = self.fitted()
        z = rng(5).normal(size=(5, 8))
        before = z.copy()
        norm.inverse_transform(z)
        assert np.array_equal(z, before)


class TestPCACovarianceBitIdentity:
    def test_components_match_explicit_covariance(self):
        x = rng(6).normal(size=(50, 8)) * 3.0
        fitted = PCA(n_components=3).fit(x)

        # Reference path: the textbook covariance expression, identical
        # eigensolve and sign convention.
        import scipy.linalg

        m = x.shape[0]
        centered = x - x.mean(axis=0)
        cov = (centered.T @ centered) / (m - 1)
        eigenvalues, eigenvectors = scipy.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.clip(eigenvalues[order], 0.0, None)
        eigenvectors = eigenvectors[:, order]
        components = eigenvectors[:, :3].T
        signs = np.sign(components[np.arange(3), np.argmax(np.abs(components), axis=1)])
        signs[signs == 0] = 1.0

        assert np.array_equal(fitted.components_, components * signs[:, None])
        assert np.array_equal(fitted.explained_variance_, eigenvalues[:3])


class TestPairwiseDistancesBitIdentity:
    def test_matches_expansion_expression(self):
        a = rng(7).normal(size=(17, 2))
        b = rng(8).normal(size=(31, 2))
        aa = np.einsum("ij,ij->i", a, a)[:, None]
        bb = np.einsum("ij,ij->i", b, b)[None, :]
        ab = a[:, 0][:, None] * b[:, 0][None, :] + a[:, 1][:, None] * b[:, 1][None, :]
        expected = np.maximum(aa - 2.0 * ab + bb, 0.0)
        assert np.array_equal(rowwise_sq_distances(a, b), expected)

    def test_self_distances_are_clipped_nonnegative(self):
        # The expansion trick leaves float residue on the diagonal
        # (the a·bᵀ term and einsum round differently); the kernel clips it.
        a = rng(9).normal(size=(12, 3))
        d2 = rowwise_sq_distances(a, a)
        assert np.all(d2 >= 0.0)
        assert np.all(np.diag(d2) < 1e-12)

    def test_does_not_mutate_inputs(self):
        a = rng(10).normal(size=(6, 2))
        b = rng(11).normal(size=(9, 2))
        a0, b0 = a.copy(), b.copy()
        rowwise_sq_distances(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_precomputed_norms_bit_identical(self):
        # The per-fit ‖b‖² cache feeds the same einsum values into the
        # same in-place assembly, so the cached path must be bitwise
        # equal to the recomputing one — in both compute dtypes.
        for dtype in (np.float64, np.float32):
            a = rng(12).normal(size=(17, 4)).astype(dtype)
            b = rng(13).normal(size=(23, 4)).astype(dtype)
            norms = np.einsum("ij,ij->i", b, b)
            assert np.array_equal(
                rowwise_sq_distances(a, b),
                rowwise_sq_distances(a, b, b_sq_norms=norms),
            )

    def test_preserves_float32(self):
        a = rng(14).normal(size=(5, 3)).astype(np.float32)
        b = rng(15).normal(size=(7, 3)).astype(np.float32)
        assert rowwise_sq_distances(a, b).dtype == np.dtype(np.float32)


def mode_filter_reference(classes: np.ndarray, window: int) -> np.ndarray:
    """The pre-vectorization per-window bincount loop."""
    classes = np.asarray(classes, dtype=np.int64)
    if window <= 0 or window % 2 == 0:
        raise ValueError("window must be a positive odd number")
    if window == 1 or classes.size <= 2:
        return classes.copy()
    half = window // 2
    m = classes.size
    out = np.empty_like(classes)
    for i in range(m):
        lo = max(i - half, 0)
        hi = min(i + half + 1, m)
        counts = np.bincount(classes[lo:hi])
        best = int(counts.argmax())
        out[i] = best if counts[best] > counts[classes[i]] else classes[i]
    return out


class TestModeFilterBitIdentity:
    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9])
    def test_matches_reference_loop(self, window):
        gen = rng(12)
        for _ in range(60):
            m = int(gen.integers(1, 40))
            n_classes = int(gen.integers(1, 6))
            classes = gen.integers(0, n_classes, size=m)
            got = mode_filter(classes, window=window)
            assert got.dtype == np.int64
            assert np.array_equal(got, mode_filter_reference(classes, window))

    def test_ties_keep_original_value(self):
        # Boundary window [1, 0] is a tie; argmax alone would pick class
        # 0, but a tie must keep the original value 1.
        classes = np.array([1, 0, 0, 1], dtype=np.int64)
        assert mode_filter(classes, window=3)[0] == 1

    def test_smooths_isolated_outlier(self):
        classes = np.array([2, 2, 7, 2, 2], dtype=np.int64)
        assert np.array_equal(
            mode_filter(classes, window=3), np.array([2, 2, 2, 2, 2])
        )

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            mode_filter(np.array([0, 1, 0]), window=4)


class TestBatchGatherBitIdentity:
    def test_preallocated_gather_matches_vstack(self):
        # The serve-layer gather writes slices of one preallocated
        # buffer; equivalent to stacking the per-series feature blocks.
        gen = rng(13)
        idx_cols = np.array([0, 2, 3])
        matrices = [gen.normal(size=(5, int(gen.integers(2, 9)))) for _ in range(4)]

        blocks = [m[idx_cols, :].T for m in matrices]
        expected = np.vstack(blocks)

        lengths = [m.shape[1] for m in matrices]
        offsets = [0]
        for n in lengths:
            offsets.append(offsets[-1] + n)
        total = offsets[-1]
        raw = np.empty((total, idx_cols.shape[0]), dtype=np.float64)
        for i, m in enumerate(matrices):
            o = offsets[i]
            raw[o : o + lengths[i]] = m[idx_cols, :].T

        assert np.array_equal(raw, expected)
