"""Vectorized fleet classification: many runs through one stacked kernel.

The sequential path (:meth:`ApplicationClassifier.classify_series`)
pays its Python and dispatch overhead once per run; a resource manager
classifying a fleet of short monitoring windows pays it hundreds of
times per scheduling round.  :class:`BatchClassifier` hands the whole
fleet to the classifier's stacked kernel, which gathers the selected
metrics of every run into one ``(rows, p)`` buffer, runs the
:meth:`~repro.core.pipeline.ApplicationClassifier.classify_rows` steps
(normalize, project, neighbor search, vote) **once** over all of them,
and computes every run's composition with one stacked bincount.  The
call returns one :class:`~repro.core.pipeline.BatchResult` holding those
stacked arrays; a run's ``ClassificationResult`` is a view built when it
is first accessed, so a round pays no per-run Python for runs nobody
reads.  ``classify_series`` is the one-series case of that same kernel.

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

from ..core.pipeline import ApplicationClassifier, BatchResult, _pack_compositions, _stack_runs
from ..errors import NotTrainedError
from ..metrics.series import SnapshotSeries
from ..obs import InstrumentSpec, get_registry as obs_get_registry

__all__ = ["BatchClassifier", "BatchResult"]

#: ``classify_batch`` instruments.
_RUNS = InstrumentSpec.counter("serve.batch.runs", "Runs classified by classify_batch.")
_SNAPSHOTS = InstrumentSpec.counter("serve.batch.snapshots", "Snapshots classified by classify_batch.")

#: The five stage durations of an empty batch, which does no work.
_NO_STAGES = (0.0, 0.0, 0.0, 0.0, 0.0)


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

    def classify_batch(self, series_list: Sequence[SnapshotSeries]) -> BatchResult:
        """Classify every series; results are bit-identical to the sequential path.

        Returns a :class:`~repro.core.pipeline.BatchResult`: the call's
        stacked arrays, and as a sequence one
        :class:`~repro.core.pipeline.ClassificationResult` per input
        series, in input order, each built when first accessed.
        ``class_vector``, ``scores``, ``composition``,
        ``application_class``, and ``category`` match
        :meth:`~repro.core.pipeline.ApplicationClassifier.classify_series`
        exactly (same bits); ``timings`` reports the batch's stage costs
        apportioned to each run by its share of the stacked snapshots,
        since per-run wall clocks are not observable inside one fused
        kernel.  An empty *series_list* gives an empty result (equal to
        ``[]``).

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
    ) -> tuple[BatchResult, tuple[float, float, float, float, float]]:
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
        nodes, matrices, offsets = _stack_runs(series_list)
        if not nodes:
            class_vector = np.empty(0, dtype=np.int64)
            scores = np.empty((0, clf.pca.components_.shape[0]), dtype=clf.compute_dtype)
            packed = _pack_compositions([0], class_vector)
            return BatchResult((), [0], class_vector, scores, *packed, _NO_STAGES), _NO_STAGES
        registry = obs_get_registry()
        with registry.span("serve.batch.classify", clock=clf.clock):
            results, _ = clf._classify_stacked(nodes, matrices, offsets)
        if registry.enabled:
            registry.get(_RUNS).inc(len(results))
            registry.get(_SNAPSHOTS).inc(len(results.class_vector))
        return results, results.stage_seconds
