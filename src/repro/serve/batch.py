"""Vectorized fleet classification: many runs through one stacked kernel.

The sequential path (:meth:`ApplicationClassifier.classify_series`)
pays its Python and dispatch overhead once per run; a resource manager
classifying a fleet of short monitoring windows pays it hundreds of
times per scheduling round.  :class:`BatchClassifier` gathers the
selected metrics of every run into one stacked ``(rows, p)`` buffer and
runs the classifier's one kernel
(:meth:`~repro.core.pipeline.ApplicationClassifier.classify_rows`:
normalize, project, neighbor search, vote) **once** over all of them,
then splits compositions out with one stacked bincount.

Every step of that kernel is row-independent — the projection and the
distances are accumulated column by column in a fixed order rather than
by shape-dependent GEMMs — so stacking cannot change any row's result:
class vectors, scores, compositions, application classes, and
categories are **bit-identical** to calling ``classify_series`` on each
run separately (asserted by ``tests/test_serve_batch.py``), in either
compute dtype, at a multiple of the sequential throughput
(``benchmarks/bench_serve_throughput.py``).  The neighbor search splits
the stacked rows into pool-sized blocks
(:attr:`~repro.core.knn.KNeighborsClassifier.block_rows`) assembled in
the calling thread's reused workspace, so a large fleet never allocates
one ``rows × pool`` distance buffer and a serving round allocates none.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.labels import ALL_CLASSES, ClassComposition, SnapshotClass, application_category
from ..core.pipeline import ApplicationClassifier, ClassificationResult, StageTimings
from ..errors import EmptySeriesError, NotTrainedError
from ..metrics.catalog import metric_indices
from ..metrics.series import SnapshotSeries
from ..obs import counter as obs_counter, enabled as obs_enabled, span as obs_span

__all__ = ["BatchClassifier"]


class BatchClassifier:
    """Classify many snapshot series in one vectorized pass.

    Parameters
    ----------
    classifier:
        A *trained* :class:`~repro.core.pipeline.ApplicationClassifier`.
        The batch kernel reads the fitted preprocessing, PCA, and k-NN
        state directly; training state is re-read on every call, so a
        retrained classifier is picked up automatically.

    Raises
    ------
    NotTrainedError
        If the classifier is untrained (a ``RuntimeError`` subclass).
    """

    def __init__(self, classifier: ApplicationClassifier) -> None:
        if not classifier.trained:
            raise NotTrainedError("batch classification requires a trained classifier")
        self.classifier = classifier

    def classify_batch(
        self, series_list: Sequence[SnapshotSeries]
    ) -> list[ClassificationResult]:
        """Classify every series; results are bit-identical to the sequential path.

        Returns one :class:`ClassificationResult` per input series, in
        input order.  ``class_vector``, ``scores``, ``composition``,
        ``application_class``, and ``category`` match
        :meth:`~repro.core.pipeline.ApplicationClassifier.classify_series`
        exactly (same bits); ``timings`` reports the batch's stage costs
        apportioned to each run by its share of the stacked snapshots,
        since per-run wall clocks are not observable inside one fused
        kernel.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If any series is empty (the batch is rejected whole, before
            any work, so a bad request cannot half-classify a fleet).
        """
        return self.classify_batch_traced(series_list)[0]

    def classify_batch_traced(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        """Classify plus the batch's five-stage wall-clock split.

        Same results as :meth:`classify_batch` (which is this call
        without the split), plus ``(filter_s, normalize_s, pca_s,
        knn_s, vote_s)`` — the batch's stage durations, with the
        preprocess time split at the gather/normalize boundary — so a
        request trace can synthesize the five pipeline-stage spans under
        its compute span.

        Raises
        ------
        NotTrainedError
            If the classifier lost its training since construction.
        EmptySeriesError
            If any series is empty.
        """
        clf = self.classifier
        if not clf.trained:
            raise NotTrainedError("classifier not trained")
        for series in series_list:
            if len(series) == 0:
                raise EmptySeriesError("cannot classify an empty series")
        if not series_list:
            return [], (0.0, 0.0, 0.0, 0.0, 0.0)
        with obs_span("serve.batch.classify", clock=clf.clock):
            results, stage_seconds = self._run_stacked(series_list)
        if obs_enabled():
            obs_counter("serve.batch.runs", help="Runs classified by classify_batch.").inc(
                len(results)
            )
            obs_counter(
                "serve.batch.snapshots", help="Snapshots classified by classify_batch."
            ).inc(sum(r.num_samples for r in results))
        return results, stage_seconds

    # ------------------------------------------------------------------
    # the stacked kernel
    # ------------------------------------------------------------------
    def _run_stacked(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], tuple[float, float, float, float, float]]:
        clf = self.classifier
        clock = clf.clock

        # --- gather: each run's selected metric rows land in their slot
        # of one preallocated stacked buffer at the compute dtype (the
        # same values ``selector.transform_series`` yields per run, and
        # in float32 the same rounding its cast applies).
        t = clock()
        idx_cols = np.asarray(metric_indices(clf.preprocessor.selector.names), dtype=np.intp)
        lengths = [s.matrix.shape[1] for s in series_list]
        offsets = [0]
        for m in lengths:
            offsets.append(offsets[-1] + m)
        total = offsets[-1]
        raw = np.empty((total, idx_cols.shape[0]), dtype=clf.compute_dtype)
        for i, s in enumerate(series_list):
            o = offsets[i]
            raw[o : o + lengths[i]] = s.matrix[idx_cols, :].T
        t_gather = clock()

        # --- the classify_rows kernel, once over the stacked rows.
        features = clf.normalize_rows(raw)
        t_normalized = clock()
        scores_all = clf.project_rows(features)
        t_projected = clock()
        class_vector_all = clf.knn.predict_rows(scores_all)
        t_searched = clock()
        results = self._package_results(series_list, lengths, offsets, class_vector_all, scores_all)
        t_done = clock()

        filter_s = t_gather - t
        normalize_s = t_normalized - t_gather
        pca_s = t_projected - t_normalized
        classify_s = t_searched - t_projected
        vote_s = t_done - t_searched
        # Apportion the batch's stage costs by snapshot share, so summed
        # per-run timings reproduce the batch totals (§5.3 accounting).
        for i, result in enumerate(results):
            share = lengths[i] / total
            result.timings.preprocess_s = (filter_s + normalize_s) * share
            result.timings.pca_s = pca_s * share
            result.timings.classify_s = classify_s * share
            result.timings.vote_s = vote_s * share
        return results, (filter_s, normalize_s, pca_s, classify_s, vote_s)

    def _package_results(
        self,
        series_list: Sequence[SnapshotSeries],
        lengths: list[int],
        offsets: list[int],
        class_vector_all: np.ndarray,
        scores_all: np.ndarray,
    ) -> list[ClassificationResult]:
        """Per-run results from the stacked class vector and scores.

        dtype: float64

        Compositions are fractions of integer counts — exact bookkeeping
        shared by both numeric modes, always at float64 — via one
        stacked bincount (identical by construction to per-run
        ``from_class_vector``) and one row-wise argmax (identical to
        each composition's ``dominant()``).
        """
        n_classes = len(ALL_CLASSES)
        run_ids = np.repeat(np.arange(len(lengths)), lengths)
        counts = np.bincount(
            run_ids * n_classes + class_vector_all, minlength=len(lengths) * n_classes
        ).reshape(len(lengths), n_classes)
        fractions = counts / np.asarray(lengths, dtype=np.float64)[:, None]
        dominant_codes = np.argmax(fractions, axis=1)
        results: list[ClassificationResult] = []
        for i, series in enumerate(series_list):
            o, m = offsets[i], lengths[i]
            composition = ClassComposition(fractions=tuple(fractions[i].tolist()))
            app_class = SnapshotClass(int(dominant_codes[i]))
            results.append(
                ClassificationResult(
                    node=series.node,
                    num_samples=m,
                    class_vector=class_vector_all[o : o + m].copy(),
                    composition=composition,
                    application_class=app_class,
                    category=application_category(composition, dominant=app_class),
                    scores=scores_all[o : o + m].copy(),
                    timings=StageTimings(),
                )
            )
        return results
