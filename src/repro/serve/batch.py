"""Vectorized fleet classification: many runs through one stacked kernel.

The sequential path (:meth:`ApplicationClassifier.classify_series`)
pays its Python and dispatch overhead once per run; a resource manager
classifying a fleet of short monitoring windows pays it hundreds of
times per scheduling round.  :class:`BatchClassifier` hands the whole
fleet to the classifier's stacked kernel, which gathers the selected
metrics of every run into one ``(rows, p)`` buffer, runs the
:meth:`~repro.core.pipeline.ApplicationClassifier.classify_rows` steps
(normalize, project, neighbor search, vote) **once** over all of them,
and splits compositions out with one stacked bincount.
``classify_series`` is the one-series case of that same kernel.

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

from ..core.pipeline import ApplicationClassifier, ClassificationResult
from ..errors import EmptySeriesError, NotTrainedError
from ..metrics.series import SnapshotSeries
from ..obs import enabled as obs_enabled, get_registry as obs_get_registry, span as obs_span

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
        # Cached counter handles, keyed by (registry, generation); see
        # _obs_counters().
        self._obs_cache: tuple | None = None

    def _obs_counters(self) -> tuple:
        """The ``serve.batch.runs``/``serve.batch.snapshots`` counters, cached per registry epoch.

        Resolving a counter through the registry's get-or-create costs
        more than incrementing it; the handles stay valid until the
        registry is swapped or reset, both of which change the
        ``(registry, generation)`` cache key, as in
        :meth:`ApplicationClassifier._obs_instruments
        <repro.core.pipeline.ApplicationClassifier._obs_instruments>`.
        """
        registry = obs_get_registry()
        cache = self._obs_cache
        if cache is not None and cache[0] is registry and cache[1] == registry.generation:
            return cache[2]
        counters = (
            registry.counter("serve.batch.runs", help="Runs classified by classify_batch."),
            registry.counter("serve.batch.snapshots", help="Snapshots classified by classify_batch."),
        )
        self._obs_cache = (registry, registry.generation, counters)
        return counters

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
            results, _, stage_seconds = clf._classify_stacked(series_list)
        if obs_enabled():
            runs_c, snapshots_c = self._obs_counters()
            runs_c.inc(len(results))
            snapshots_c.inc(sum(r.num_samples for r in results))
        return results, stage_seconds
