"""The application classifier pipeline (paper Figure 2).

End-to-end dimension reduction and classification::

    A(n×m) --preprocess--> A'(p×m) --PCA--> B(q×m) --classify--> C(1×m) --vote--> Class

* train on labelled snapshot series from the training applications
  (PostMark→IO, SPECseis96→CPU, Pagebench→MEM, Ettcp→NET, idle→IDLE);
* classify each snapshot of a test run with the 3-NN classifier in the
  2-component PCA space;
* output both the majority-vote application *Class* and the full *class
  composition*, plus per-stage wall-clock timings (the paper's §5.3
  classification-cost accounting).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import EmptySeriesError, NotTrainedError
from ..metrics.catalog import metric_indices
from ..metrics.series import SnapshotSeries
from ..obs import (
    enabled as obs_enabled,
    get_registry as obs_get_registry,
    span as obs_span,
)
from ..obs.context import PIPELINE_STAGE_NAMES
from .config import ClassifierConfig
from .knn import KNeighborsClassifier
from .labels import (
    ALL_CLASSES,
    DOMINANT_CATEGORIES,
    IDLE_MIX_HIGH,
    IDLE_MIX_LOW,
    INTERACTIVE_CATEGORY,
    ClassComposition,
    SnapshotClass,
)
from .pca import PCA
from .preprocessing import MetricSelector, Normalizer, Preprocessor


#: A clock is any zero-argument callable returning seconds as a float.
#: ``time.perf_counter`` (held as a reference, never called directly by
#: pipeline code) is the production default; tests inject fake clocks to
#: keep classification output bit-reproducible.
Clock = Callable[[], float]

#: Production clock for :class:`StageTimings` accounting.  This is the
#: single sanctioned wall-clock touchpoint in ``repro.core`` — everything
#: else must receive time through an injected ``Clock``.
DEFAULT_CLOCK: Clock = time.perf_counter


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each classification stage."""

    preprocess_s: float = 0.0
    pca_s: float = 0.0
    classify_s: float = 0.0
    vote_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total seconds across all four stages."""
        return self.preprocess_s + self.pca_s + self.classify_s + self.vote_s

    def per_sample_ms(self, num_samples: int) -> float:
        """Unit classification cost in milliseconds per snapshot."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return 1000.0 * self.total_s / num_samples


@dataclass
class ClassificationResult:
    """Everything the classification center outputs for one run."""

    node: str
    num_samples: int
    class_vector: np.ndarray = field(repr=False)
    composition: ClassComposition
    application_class: SnapshotClass
    category: str
    scores: np.ndarray = field(repr=False)
    timings: StageTimings = field(default_factory=StageTimings)

    def percent(self, c: SnapshotClass) -> float:
        """Composition percentage of class *c* (Table 3 format)."""
        return 100.0 * self.composition.fraction(c)


class ApplicationClassifier:
    """PCA + k-NN application classifier.

    Parameters
    ----------
    selector:
        Metric subset to use (default: the paper's 8 expert metrics).
    n_components:
        PCA components ``q``; the paper's threshold extracts exactly 2.
        Mutually exclusive with *min_variance_fraction*.
    min_variance_fraction:
        Variance-based component selection, if preferred.
    k:
        Neighbors in the vote (default 3, odd required).
    compute_dtype:
        ``"float64"`` (default) — the reference mode: the staged
        normalize → center → project pipeline at float64 — or
        ``"float32"`` — the documented tolerance mode: every fitted
        parameter, intermediate buffer, and distance runs at float32,
        and the per-snapshot normalize→center→project stages collapse
        into one affine projection (+bias) folded at train time.
    clock:
        Injected clock for the §5.3 stage-timing accounting (defaults to
        :data:`DEFAULT_CLOCK`); pass a fake for deterministic timings.

    All tuning parameters are keyword-only.
    """

    def __init__(
        self,
        *,
        selector: MetricSelector | None = None,
        n_components: int | None = 2,
        min_variance_fraction: float | None = None,
        k: int = 3,
        compute_dtype: str = "float64",
        clock: Clock | None = None,
    ) -> None:
        if compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', got {compute_dtype!r}"
            )
        self.compute_dtype = compute_dtype
        self._dtype = np.dtype(compute_dtype)
        self.clock: Clock = clock if clock is not None else DEFAULT_CLOCK
        self.preprocessor = Preprocessor(
            selector=selector or MetricSelector(),
            normalizer=Normalizer(dtype=self._dtype),
        )
        if min_variance_fraction is not None:
            n_components = None
        self.pca = PCA(n_components=n_components, min_variance_fraction=min_variance_fraction)
        self.knn = KNeighborsClassifier(k=k)
        self.training_scores_: np.ndarray | None = None
        self.training_labels_: np.ndarray | None = None
        # Folded normalize→center→project operands, built at train time:
        # scores == raw_selected @ fused_weights_ + fused_bias_ (the
        # tolerance mode's one-pass projection).
        self.fused_weights_: np.ndarray | None = None
        self.fused_bias_: np.ndarray | None = None
        # The selected metrics' catalog rows, fixed at train time, so a
        # classify call never walks the catalog.
        self._metric_idx: np.ndarray | None = None
        # Cached observability instrument handles, keyed by
        # (registry, generation); see _obs_instruments().
        self._obs_cache: tuple | None = None

    @classmethod
    def from_config(cls, config: ClassifierConfig) -> "ApplicationClassifier":
        """Construct a classifier from a :class:`ClassifierConfig`.

        The config is the sanctioned way to carry tuning parameters
        through the serving layer (it doubles as the model-cache key).
        Both numeric modes construct here: ``compute_dtype="float64"``
        is the bit-identical reference pipeline and
        ``compute_dtype="float32"`` the tolerance mode (see
        ``docs/API.md`` § Numeric modes).
        """
        return cls(
            selector=config.selector(),
            n_components=config.n_components,
            min_variance_fraction=config.min_variance_fraction,
            k=config.k,
            compute_dtype=config.compute_dtype,
            clock=config.clock,
        )

    @property
    def config(self) -> ClassifierConfig:
        """The :class:`ClassifierConfig` equivalent to this classifier.

        Reconstructed from the live components, so it is accurate for
        classifiers built with scattered kwargs too; the clock is
        excluded from config equality, making this usable as a cache key.
        """
        return ClassifierConfig(
            metric_names=self.preprocessor.selector.names,
            n_components=self.pca.n_components,
            min_variance_fraction=self.pca.min_variance_fraction,
            k=self.knn.k,
            compute_dtype=self.compute_dtype,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self, training_data: Sequence[tuple[SnapshotSeries, SnapshotClass]]) -> "ApplicationClassifier":
        """Fit preprocessing, PCA, and the k-NN pool on labelled series.

        Every snapshot of each series is labelled with the series' class
        (the paper trains on whole runs of class-representative
        applications).

        Raises
        ------
        ValueError
            If no training data, or fewer than 2 distinct classes, are
            provided.
        """
        if not training_data:
            raise ValueError("no training data given")
        labels = {label for _, label in training_data}
        if len(labels) < 2:
            raise ValueError("training data must cover at least 2 classes")
        series_list = [series for series, _ in training_data]
        self.preprocessor.fit(series_list)
        self._metric_idx = np.asarray(metric_indices(self.preprocessor.selector.names), dtype=np.intp)
        features = []
        y = []
        for series, label in training_data:
            f = self.preprocessor.transform_series(series)
            features.append(f)
            y.append(np.full(f.shape[0], int(label), dtype=np.int64))
        x = np.vstack(features)
        y_arr = np.concatenate(y)
        scores = self.pca.fit_transform(x)
        self.knn.fit(scores, y_arr)
        self.training_scores_ = scores
        self.training_labels_ = y_arr
        self._build_fused_projection()
        return self

    def _build_fused_projection(self) -> None:
        """Fold the Normalizer affine and PCA centering into one projection.

        With ``μn, σn`` the normalizer statistics, ``μp`` the PCA mean,
        and ``W`` the ``(q, p)`` component matrix, the staged pipeline
        computes ``((x − μn)/σn − μp) @ Wᵀ``.  Distributing gives the
        affine form ``x @ (Wᵀ/σn) + c`` with
        ``c = −(μn/σn + μp) @ Wᵀ`` — one projection pass plus a bias
        instead of three elementwise passes and a projection.  Built in
        both modes (the operands carry the compute dtype); the float32
        tolerance mode classifies through it, while the float64
        reference mode keeps the staged normalize → center → project
        structure.
        """
        normalizer = self.preprocessor.normalizer
        components_t = self.pca.components_.T
        self.fused_weights_ = components_t / normalizer.scale_[:, None]
        self.fused_bias_ = -(
            (normalizer.mean_ / normalizer.scale_ + self.pca.mean_) @ components_t
        )

    @property
    def trained(self) -> bool:
        """True once :meth:`train` has fitted the k-NN pool."""
        return self.knn.fitted

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _obs_instruments(self) -> tuple[tuple, object, object]:
        """Instrument handles for the hot path, cached per registry epoch.

        ``classify_series`` observes five stage latencies (handles in
        :data:`~repro.obs.context.PIPELINE_STAGE_NAMES` order) and two
        counters per call; resolving each through the registry's
        get-or-create (label normalization, dict keys) would dominate
        the instrumentation budget.  Handles stay valid until the
        registry is swapped (disable/enable) or reset, both of which
        change the ``(registry, generation)`` cache key.
        """
        registry = obs_get_registry()
        cache = self._obs_cache
        if cache is not None and cache[0] is registry and cache[1] == registry.generation:
            return cache[2], cache[3], cache[4]
        stage_hists = tuple(
            registry.histogram(
                "pipeline.stage.seconds",
                help="Latency of one classification pipeline stage.",
                stage=stage,
            )
            for stage in PIPELINE_STAGE_NAMES
        )
        snapshots_c = registry.counter(
            "pipeline.snapshots", help="Snapshots classified by classify_series."
        )
        runs_c = registry.counter("pipeline.runs", help="Series classified end to end.")
        self._obs_cache = (registry, registry.generation, stage_hists, snapshots_c, runs_c)
        return stage_hists, snapshots_c, runs_c

    def classify_series(self, series: SnapshotSeries) -> ClassificationResult:
        """Classify every snapshot of *series* and aggregate.

        The one-series case of the stacked kernel that
        :class:`~repro.serve.batch.BatchClassifier` runs over a fleet,
        so each snapshot's score and class are bit-identical to the
        batched and streaming paths, and the §5.3 stage timings come
        from the same six clock reads.

        Raises
        ------
        NotTrainedError
            If called before training (a ``RuntimeError`` subclass).
        EmptySeriesError
            If the series is empty (a ``ValueError`` subclass).
        """
        if not self.trained:
            raise NotTrainedError("classifier not trained")
        if len(series) == 0:
            raise EmptySeriesError("cannot classify an empty series")

        # Observability reuses the kernel's stage durations: one tracing
        # span wraps the whole pipeline and the per-stage latencies go
        # into the ``pipeline.stage.seconds`` histogram family.  While
        # obs is disabled (the default) the span is a shared no-op, so
        # the clock reads are the kernel's six either way.
        timed = obs_enabled()
        with obs_span("pipeline.classify", clock=self.clock):
            (result,), start, stage_seconds = self._classify_stacked([series])
            # Under a request trace (an enclosing span carrying a
            # nonzero trace id) the stages also become child spans,
            # laid end to end from the kernel's first clock read, so
            # tracing adds no clock read.
            if timed:
                registry = obs_get_registry()
                if registry.current_trace_id():
                    spans = []
                    for stage, duration in zip(PIPELINE_STAGE_NAMES, stage_seconds):
                        spans.append((f"pipeline.stage.{stage}", start, duration))
                        start += duration
                    registry.emit_spans(spans)
        if timed:
            stage_hists, snapshots_c, runs_c = self._obs_instruments()
            for hist, duration in zip(stage_hists, stage_seconds):
                hist.observe(duration)
            snapshots_c.inc(len(series))
            runs_c.inc()
        return result

    def _classify_stacked(
        self, series_list: Sequence[SnapshotSeries]
    ) -> tuple[list[ClassificationResult], float, tuple[float, float, float, float, float]]:
        """The staged classify kernel, once over many series' stacked rows.

        Gathers each series' selected metric rows into its slot of one
        ``(rows, p)`` buffer at the compute dtype, runs the
        :meth:`classify_rows` steps over the stack, and packages one
        result per series, reading the clock once before the gather and
        once after each of the five stages.  Returns the results (in
        input order), the first clock read, and the five stage
        durations in :data:`~repro.obs.context.PIPELINE_STAGE_NAMES`
        order; each result's ``timings`` holds the stage costs
        apportioned by its share of the stacked snapshots, so summed
        per-run timings reproduce the totals (§5.3 accounting).

        The caller validates: the classifier is trained, *series_list*
        is non-empty and no series is empty.
        """
        clock = self.clock

        # --- gather: the same values ``selector.transform_series``
        # yields per run, and in float32 the same rounding its cast
        # applies.
        t = clock()
        idx_cols = self._metric_idx
        lengths = [s.matrix.shape[1] for s in series_list]
        offsets = [0]
        for m in lengths:
            offsets.append(offsets[-1] + m)
        total = offsets[-1]
        raw = np.empty((total, idx_cols.shape[0]), dtype=self.compute_dtype)
        for i, s in enumerate(series_list):
            o = offsets[i]
            raw[o : o + lengths[i]] = s.matrix[idx_cols, :].T
        t_gather = clock()

        # --- the classify_rows kernel, once over the stacked rows.
        features = self.normalize_rows(raw)
        t_normalized = clock()
        scores_all = self.project_rows(features)
        t_projected = clock()
        class_vector_all = self.knn.predict_rows(scores_all)
        t_searched = clock()
        results = _package_results(series_list, lengths, offsets, class_vector_all, scores_all)
        t_done = clock()

        filter_s = t_gather - t
        normalize_s = t_normalized - t_gather
        pca_s = t_projected - t_normalized
        classify_s = t_searched - t_projected
        vote_s = t_done - t_searched
        for i, result in enumerate(results):
            share = lengths[i] / total
            result.timings.preprocess_s = (filter_s + normalize_s) * share
            result.timings.pca_s = pca_s * share
            result.timings.classify_s = classify_s * share
            result.timings.vote_s = vote_s * share
        return results, t, (filter_s, normalize_s, pca_s, classify_s, vote_s)

    def classify_rows(self, features: np.ndarray) -> np.ndarray:
        """Classify pre-selected raw feature rows: the one classify kernel.

        *features* is oriented samples×metrics — shape ``(k, p)`` for
        ``k`` snapshots of the ``p`` selected metrics (the transpose of
        the paper's ``p×m`` convention, one row per snapshot); returns
        the length-``k`` class vector.  Three steps: :meth:`normalize_rows`,
        :meth:`project_rows`, and
        :meth:`~repro.core.knn.KNeighborsClassifier.predict_rows`.
        The stacked kernel behind :meth:`classify_series` and the
        batched serving path (with stage clock reads in between) and
        the streaming ingest path run exactly these steps, so every
        path computes the same bits for a row.

        **Row *i*'s class is bit-identical for any batch size**: every
        step is row-independent, the projection is accumulated feature
        column by feature column with elementwise broadcasts (fixed
        order, no shape-dependent BLAS kernel selection), and the
        neighbor search uses the same column-accumulated distances.
        That makes "drain a window, classify a batch" bit-identical (per
        compute dtype) to classifying each announcement alone.
        """
        x = np.asarray(features)
        if x.ndim != 2:
            raise ValueError(f"expected (k, p) feature rows, got shape {x.shape}")
        return self.knn.predict_rows(self.project_rows(self.normalize_rows(x)))

    def normalize_rows(self, x: np.ndarray) -> np.ndarray:
        """The kernel's normalize step on ``(m, p)`` raw rows.

        The float64 reference mode applies the fitted normalizer
        (:meth:`~repro.core.preprocessing.Preprocessor.transform_features`);
        the float32 tolerance mode only casts to float32 (a no-op on
        float32 rows), since its normalizer affine is folded into the
        projection.
        """
        if self.compute_dtype != "float64":
            return x.astype(self._dtype, copy=False)
        return self.preprocessor.transform_features(x)

    def project_rows(self, features: np.ndarray) -> np.ndarray:
        """The kernel's projection step: ``(m, p)`` features → ``(m, q)`` scores.

        The float64 mode centers the normalized features and projects
        them onto the PCA components; the float32 mode starts from the
        folded bias and projects the raw rows through the folded
        weights.  Either way the ``p`` per-feature terms of each score
        are laid out as a ``(terms, q, m)`` stack — one broadcast
        multiply — and summed by ``np.add.accumulate``, which adds them
        strictly in order (term 0, then 1, …), so row *i*'s scores do
        not depend on *m*.  *features* is not modified.
        """
        m = features.shape[0]
        if self.compute_dtype != "float64":
            weights = self.fused_weights_  # (p, q)
            terms = np.empty((weights.shape[0] + 1, weights.shape[1], m), dtype=self._dtype)
            terms[0] = self.fused_bias_[:, None]
            np.multiply(weights[:, :, None], features.T[:, None, :], out=terms[1:])
        else:
            centered = np.subtract(features.T, self.pca.mean_[:, None], order="C")  # (p, m)
            terms = self.pca.components_.T[:, :, None] * centered[:, None, :]  # (p, q, m)
        np.add.accumulate(terms, axis=0, out=terms)
        return terms[-1].T.copy()


def _package_results(
    series_list: Sequence[SnapshotSeries],
    lengths: list[int],
    offsets: list[int],
    class_vector_all: np.ndarray,
    scores_all: np.ndarray,
) -> list[ClassificationResult]:
    """Per-run results from the stacked class vector and scores.

    dtype: float64

    Compositions are fractions of integer counts — exact bookkeeping
    shared by both numeric modes, always at float64 — via one stacked
    bincount (identical by construction to per-run
    ``ClassComposition.from_class_vector``), one row-wise argmax
    (identical to each composition's ``dominant()``), and the idle band
    and dominant-class table of ``application_category`` applied to the
    whole fleet.  Each result's ``class_vector`` and ``scores`` are its
    rows of *class_vector_all* and *scores_all*: disjoint slices, not
    copies, so those two arrays must be the call's own.  Timings are
    left for the kernel to fill in.
    """
    n_classes = len(ALL_CLASSES)
    run_ids = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.bincount(
        run_ids * n_classes + class_vector_all, minlength=len(lengths) * n_classes
    ).reshape(len(lengths), n_classes)
    fractions = counts / np.asarray(lengths, dtype=np.float64)[:, None]
    idle = fractions[:, SnapshotClass.IDLE]
    mixed = ((idle >= IDLE_MIX_LOW) & (idle < IDLE_MIX_HIGH)).tolist()
    codes = np.argmax(fractions, axis=1).tolist()
    rows = fractions.tolist()
    return [
        ClassificationResult(
            node=series.node,
            num_samples=m,
            class_vector=class_vector_all[o : o + m],
            composition=ClassComposition(fractions=tuple(rows[i])),
            application_class=ALL_CLASSES[codes[i]],
            category=INTERACTIVE_CATEGORY if mixed[i] else DOMINANT_CATEGORIES[codes[i]],
            scores=scores_all[o : o + m],
        )
        for i, (series, o, m) in enumerate(zip(series_list, offsets, lengths))
    ]
