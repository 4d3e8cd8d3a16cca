"""Float32 tolerance mode vs the float64 reference, end to end.

The float32 pipeline is a *tolerance mode* (docs/API.md § Numeric
modes): it promises ≥99% per-snapshot label agreement with the float64
reference on the paper's Table-2 corpus, not bitwise equality.  These
tests pin that guarantee and the per-stage tolerances behind it, all
measured against the deterministic simulator (fixed seeds), so any
regression is a real kernel change rather than noise:

* fitted Normalizer statistics — master statistics are accumulated at
  float64 in both modes, so the float32 parameters sit within one or
  two float32 ulps of the cast float64 parameters (rtol 1e-6);
* fitted PCA basis — the eigensolve always runs at float64; cast and
  sign-alignment leave components within atol 1e-6 (measured 3e-8);
* projected scores — fused single-GEMM float32 projection stays within
  atol 1e-4 of the staged float64 scores (measured 3.8e-6 on score
  scale ~1);
* the float64 fused weights match the staged normalize→center→project
  composition to atol 1e-12 (measured 7e-16) — the algebraic fold is
  exact up to rounding;
* within float32, the batched path is *bit-identical* to the
  sequential path, the same guarantee the float64 kernel makes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.batch import BatchClassifier
from repro.sim.execution import profiled_run
from repro.workloads.catalog import test_entries as table2_test_entries

#: Tolerance-mode corpus guarantee (docs/API.md § Numeric modes).
MIN_AGREEMENT = 0.99
#: Fitted-parameter and score tolerances pinned by the suite docstring.
NORM_RTOL = 1e-6
PCA_ATOL = 1e-6
SCORE_ATOL = 1e-4
FUSED_F64_ATOL = 1e-12


@pytest.fixture(scope="module")
def table2_corpus():
    """All fourteen Table-2 test runs, profiled once (seed 100)."""
    return [
        (e.key, profiled_run(e.build(), vm_mem_mb=e.vm_mem_mb, seed=100).series)
        for e in table2_test_entries()
    ]


class TestCorpusAgreement:
    def test_per_snapshot_label_agreement(self, classifier, classifier_f32, table2_corpus):
        agree = total = 0
        for _, series in table2_corpus:
            l64 = classifier.classify_series(series).class_vector
            l32 = classifier_f32.classify_series(series).class_vector
            agree += int((l64 == l32).sum())
            total += l64.size
        assert total > 5000, "corpus unexpectedly small"
        assert agree / total >= MIN_AGREEMENT, (
            f"float32 agreed on {agree}/{total} snapshots "
            f"({agree / total:.4f} < {MIN_AGREEMENT})"
        )

    def test_dominant_class_agrees_on_every_run(
        self, classifier, classifier_f32, table2_corpus
    ):
        for key, series in table2_corpus:
            r64 = classifier.classify_series(series)
            r32 = classifier_f32.classify_series(series)
            assert r64.application_class is r32.application_class, key


class TestStageTolerances:
    def test_normalizer_statistics_match_cast_reference(
        self, classifier, classifier_f32
    ):
        n64 = classifier.preprocessor.normalizer
        n32 = classifier_f32.preprocessor.normalizer
        assert n32.mean_.dtype == np.dtype(np.float32)
        np.testing.assert_allclose(
            n32.mean_, n64.mean_.astype(np.float32), rtol=NORM_RTOL, atol=0.0
        )
        np.testing.assert_allclose(
            n32.scale_, n64.scale_.astype(np.float32), rtol=NORM_RTOL, atol=0.0
        )

    def test_pca_basis_matches_cast_reference(self, classifier, classifier_f32):
        c64 = classifier.pca.components_.astype(np.float32)
        c32 = classifier_f32.pca.components_
        assert c32.dtype == np.dtype(np.float32)
        assert c32.shape == c64.shape  # float64 eigensolve → same q
        signs = np.sign(np.sum(c64 * c32, axis=1))
        np.testing.assert_allclose(c32 * signs[:, None], c64, atol=PCA_ATOL)
        np.testing.assert_allclose(
            classifier_f32.pca.mean_,
            classifier.pca.mean_.astype(np.float32),
            atol=PCA_ATOL,
        )

    def test_projected_scores_within_tolerance(
        self, classifier, classifier_f32, table2_corpus
    ):
        _, series = table2_corpus[0]
        s64 = classifier.classify_series(series).scores
        s32 = classifier_f32.classify_series(series).scores
        assert s32.dtype == np.dtype(np.float32)
        # The two bases may disagree in component sign; align first.
        signs = np.sign(np.sum(s64.astype(np.float32) * s32, axis=0))
        np.testing.assert_allclose(
            s32 * signs[None, :], s64.astype(np.float32), atol=SCORE_ATOL
        )

    def test_float64_fused_weights_match_staged_composition(
        self, classifier, table2_corpus
    ):
        # The fused weights exist for both dtypes; in float64 mode the
        # classify path stays staged (bit-identity), so pin the fold's
        # closeness here instead.
        _, series = table2_corpus[0]
        staged = classifier.classify_series(series).scores
        selected = classifier.preprocessor.selector.transform_series(series)
        fused = selected @ classifier.fused_weights_ + classifier.fused_bias_
        np.testing.assert_allclose(fused, staged, atol=FUSED_F64_ATOL)


class TestFloat32BitIdentity:
    def test_batched_matches_sequential_bitwise(self, classifier_f32, table2_corpus):
        series_list = [s for _, s in table2_corpus]
        sequential = [classifier_f32.classify_series(s) for s in series_list]
        batched = BatchClassifier(classifier_f32).classify_batch(series_list)
        for seq, bat in zip(sequential, batched):
            assert np.array_equal(seq.class_vector, bat.class_vector)
            assert np.array_equal(seq.scores, bat.scores)
            assert seq.composition == bat.composition
            assert seq.application_class is bat.application_class

    def test_classify_is_deterministic(self, classifier_f32, table2_corpus):
        _, series = table2_corpus[0]
        a = classifier_f32.classify_series(series)
        b = classifier_f32.classify_series(series)
        assert np.array_equal(a.class_vector, b.class_vector)
        assert np.array_equal(a.scores, b.scores)


class TestFloat32Plumbing:
    def test_every_fitted_buffer_is_float32(self, classifier_f32):
        f32 = np.dtype(np.float32)
        norm = classifier_f32.preprocessor.normalizer
        assert norm.mean_.dtype == f32 and norm.scale_.dtype == f32
        assert classifier_f32.pca.mean_.dtype == f32
        assert classifier_f32.pca.components_.dtype == f32
        assert classifier_f32.knn.training_points.dtype == f32
        assert classifier_f32.knn.training_sq_norms.dtype == f32
        assert classifier_f32.fused_weights_.dtype == f32
        assert classifier_f32.fused_bias_.dtype == f32

    def test_config_round_trips_dtype(self, classifier_f32):
        assert classifier_f32.config.compute_dtype == "float32"
        assert classifier_f32.compute_dtype == "float32"

    def test_snapshot_features_path_stays_float32(self, classifier_f32):
        # The online path feeds (1, p) raw feature rows through the
        # fused projection; the result must be float32 end to end.
        raw = np.zeros((1, len(classifier_f32.preprocessor.selector.names)))
        assert classifier_f32.project_rows(classifier_f32.normalize_rows(raw)).dtype == np.float32
        codes = classifier_f32.classify_rows(raw)
        assert codes.dtype == np.dtype(np.int64)
        assert codes.shape == (1,)
