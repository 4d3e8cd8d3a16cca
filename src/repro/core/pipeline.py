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
from ..obs import InstrumentSpec, get_registry as obs_get_registry
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
from .preprocessing import Normalizer, Preprocessor


#: A clock is any zero-argument callable returning seconds as a float.
#: ``time.perf_counter`` (held as a reference, never called directly by
#: pipeline code) is the production default; tests inject fake clocks to
#: keep classification output bit-reproducible.
Clock = Callable[[], float]

#: Production clock for :class:`StageTimings` accounting.  This is the
#: single sanctioned wall-clock touchpoint in ``repro.core`` — everything
#: else must receive time through an injected ``Clock``.
DEFAULT_CLOCK: Clock = time.perf_counter

#: ``classify_series`` instruments; the stage family resolves to one
#: histogram per stage, in :data:`PIPELINE_STAGE_NAMES` order.
_STAGE_SECONDS = InstrumentSpec.histogram(
    "pipeline.stage.seconds",
    "Latency of one classification pipeline stage.",
    family=("stage", PIPELINE_STAGE_NAMES),
)
_SNAPSHOTS = InstrumentSpec.counter("pipeline.snapshots", "Snapshots classified by classify_series.")
_RUNS = InstrumentSpec.counter("pipeline.runs", "Series classified end to end.")


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
    timings: StageTimings

    def percent(self, c: SnapshotClass) -> float:
        """Composition percentage of class *c* (Table 3 format)."""
        return 100.0 * self.composition.fraction(c)


#: Application categories by category code: the dominant-class table,
#: then the interactive category at code ``len(DOMINANT_CATEGORIES)``.
_CATEGORIES: tuple[str, ...] = DOMINANT_CATEGORIES + (INTERACTIVE_CATEGORY,)

#: Mean snapshots per run up to which the gather concatenates whole
#: matrices: past ~96 copying all 33 catalog rows costs more than a
#: fancy index per run (64- and 32-run fleets, 2-core Xeon VM).
_CONCAT_MAX_MEAN_RUN = 96

#: Most rows :meth:`ApplicationClassifier.project_rows` sums as one
#: ``(p, q, m)`` term stack; larger calls add the terms feature by
#: feature into a ``(q, m)`` buffer.  The stack's single multiply wins
#: on small calls, the per-feature loop's fixed ~15 us on large ones.
#: Stack/loop time per call, median of 15 alternating rounds on a
#: 2-core Xeon VM, float64 (float32): 0.41 (0.40) at 16 rows, 0.63
#: (0.61) at 64, 0.93 (0.87) at 128, 1.00 (0.94) at 144, 1.06 (1.01) at
#: 160, 1.21 (1.14) at 192, 1.90 (2.09) at 512.  The batching service's
#: calls (``batch_size=16`` runs of a 64-run fleet) hold 44-52 and
#: 124-130 rows, so they stay on the stack.
_PROJECT_STACK_MAX_ROWS = 160


def _gather_rows(
    matrices: Sequence[np.ndarray], offsets: Sequence[int], metric_idx: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """The selected metric rows of every ``(n, m_i)`` matrix, stacked as ``(Σ m_i, p)``.

    Run *i* fills rows ``offsets[i]:offsets[i + 1]`` with the same values
    as its ``matrix[metric_idx].T`` (what ``selector.transform_series``
    yields), cast into a *dtype* buffer, at float32 with the rounding
    that cast applies.  Short runs are gathered with one ``concatenate``
    along the snapshot axis and one ``[metric_idx].T`` assignment, which
    saves a fancy index per run; runs averaging more than
    :data:`_CONCAT_MAX_MEAN_RUN` snapshots are copied one by one, since
    the concatenate copies every catalog row and only ``p`` are kept.
    """
    raw = np.empty((offsets[-1], metric_idx.shape[0]), dtype=dtype)
    if offsets[-1] <= _CONCAT_MAX_MEAN_RUN * len(matrices):
        raw[...] = np.concatenate(matrices, axis=1)[metric_idx].T
    else:
        for matrix, o in zip(matrices, offsets):
            raw[o : o + matrix.shape[1]] = matrix[metric_idx].T
    return raw


def _stack_runs(
    series_list: Sequence[SnapshotSeries],
) -> tuple[list[str], list[np.ndarray], list[int]]:
    """The nodes, metric matrices and row offsets of *series_list*, in one pass.

    Run *i* will fill rows ``offsets[i]:offsets[i + 1]`` of the stack.

    Raises
    ------
    EmptySeriesError
        If any series is empty; nothing is classified then.
    """
    nodes, matrices, offsets = [], [], [0]
    end = 0
    for series in series_list:
        matrix = series.matrix
        length = matrix.shape[1]
        if not length:
            raise EmptySeriesError("cannot classify an empty series")
        end += length
        nodes.append(series.node)
        matrices.append(matrix)
        offsets.append(end)
    return nodes, matrices, offsets


def _pack_compositions(
    offsets: Sequence[int], class_vector: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-run fractions, class codes and category codes of a stacked class vector.

    dtype: float64

    Compositions are fractions of integer counts — exact bookkeeping
    shared by both numeric modes, always at float64 — via one stacked
    bincount (identical by construction to per-run
    ``ClassComposition.from_class_vector``), one row-wise argmax
    (identical to each composition's ``dominant()``), and the idle band
    and dominant-class table of ``application_category`` applied to the
    whole fleet.  A category code indexes :data:`_CATEGORIES`.
    """
    n_classes = len(ALL_CLASSES)
    bounds = np.asarray(offsets)
    lengths = bounds[1:] - bounds[:-1]
    runs = lengths.shape[0]
    # Row r of run i counts under key i·n_classes + its class code.
    keys = np.repeat(np.arange(0, runs * n_classes, n_classes), lengths)
    keys += class_vector
    counts = np.bincount(keys, minlength=runs * n_classes).reshape(runs, n_classes)
    fractions = counts / lengths[:, None]
    class_codes = np.argmax(fractions, axis=1)
    idle = fractions[:, SnapshotClass.IDLE]
    mixed = (idle >= IDLE_MIX_LOW) & (idle < IDLE_MIX_HIGH)
    category_codes = np.where(mixed, len(DOMINANT_CATEGORIES), class_codes)
    return fractions, class_codes, category_codes


class BatchResult(Sequence[ClassificationResult]):
    """The results of one stacked classify call, one run per item.

    Holds the call's columns: the stacked ``class_vector`` ``(rows,)``
    and ``scores`` ``(rows, q)``, the run ``offsets`` (run *i* is rows
    ``offsets[i]:offsets[i + 1]``), the ``fractions`` matrix
    ``(runs, 5)``, the per-run ``class_codes`` and ``category_codes``
    (an index into the dominant-class categories, then "Idle + Others"),
    the five ``stage_seconds`` in
    :data:`~repro.obs.context.PIPELINE_STAGE_NAMES` order, and the
    call-level ``timings``.

    As a sequence it yields one :class:`ClassificationResult` per run,
    in input order.  Run *i*'s result is built on first access and then
    cached, so ``r[i] is r[i]``; its ``class_vector`` and ``scores`` are
    its rows of the call's arrays (disjoint slices, not copies), its
    ``composition`` is its validated ``fractions`` row, and its
    ``timings`` are the call's stage costs apportioned by its share of
    the rows.  Runs that are never accessed cost nothing past the
    call's arrays.  Slicing returns a list of results; use ``list(r)``
    for list operations such as ``+`` or ``append``.  A batch result
    equals a list (or batch result) holding the same results.  Results
    are cached without a lock: two threads first reading the same run
    at once may each get their own (equal) result.
    """

    __slots__ = (
        "nodes",
        "offsets",
        "class_vector",
        "scores",
        "fractions",
        "class_codes",
        "category_codes",
        "stage_seconds",
        "timings",
        "_classes",
        "_categories",
        "_views",
    )

    def __init__(
        self,
        nodes: Sequence[str],
        offsets: Sequence[int],
        class_vector: np.ndarray,
        scores: np.ndarray,
        fractions: np.ndarray,
        class_codes: np.ndarray,
        category_codes: np.ndarray,
        stage_seconds: tuple[float, float, float, float, float],
    ) -> None:
        self.nodes = nodes
        self.offsets = offsets
        self.class_vector = class_vector
        self.scores = scores
        self.fractions = fractions
        self.class_codes = class_codes
        self.category_codes = category_codes
        self.stage_seconds = stage_seconds
        filter_s, normalize_s, pca_s, classify_s, vote_s = stage_seconds
        self.timings = StageTimings(filter_s + normalize_s, pca_s, classify_s, vote_s)
        self._classes = class_codes.tolist()
        self._categories = category_codes.tolist()
        self._views: list[ClassificationResult | None] = [None] * len(nodes)

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):
        views = self._views
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(views)))]
        view = views[index]
        if view is None:
            if index < 0:
                index += len(views)
            view = views[index] = self._view(index)
        return view

    def __iter__(self):
        views = self._views
        for i, view in enumerate(views):
            if view is None:
                view = views[i] = self._view(i)
            yield view

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BatchResult, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _view(self, i: int) -> ClassificationResult:
        """Build run *i*'s result from the call's arrays."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        filter_s, normalize_s, pca_s, classify_s, vote_s = self.stage_seconds
        share = (hi - lo) / self.offsets[-1]
        return ClassificationResult(
            self.nodes[i],
            hi - lo,
            self.class_vector[lo:hi],
            ClassComposition(tuple(self.fractions[i].tolist())),
            ALL_CLASSES[self._classes[i]],
            _CATEGORIES[self._categories[i]],
            self.scores[lo:hi],
            StageTimings((filter_s + normalize_s) * share, pca_s * share, classify_s * share, vote_s * share),
        )


class ApplicationClassifier:
    """PCA + k-NN application classifier.

    Parameters
    ----------
    config:
        The tuning configuration — metric subset, PCA component
        selection, ``k``, compute dtype and clock — stored as given
        (default: :class:`ClassifierConfig`'s paper configuration).  A
        ``compute_dtype`` of ``"float64"`` is the reference mode: the
        staged normalize → center → project pipeline at float64;
        ``"float32"`` is the documented tolerance mode: every fitted
        parameter, intermediate buffer, and distance runs at float32,
        and the per-snapshot normalize→center→project stages collapse
        into one affine projection (+bias) folded at train time.  The
        live :attr:`clock` is the config's, or :data:`DEFAULT_CLOCK`.
    """

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config if config is not None else ClassifierConfig()
        self.compute_dtype = self.config.compute_dtype
        self._dtype = np.dtype(self.compute_dtype)
        self.clock: Clock = self.config.clock if self.config.clock is not None else DEFAULT_CLOCK
        self.preprocessor = Preprocessor(
            selector=self.config.selector(),
            normalizer=Normalizer(dtype=self._dtype),
        )
        self.pca = PCA(
            n_components=self.config.n_components,
            min_variance_fraction=self.config.min_variance_fraction,
        )
        self.knn = KNeighborsClassifier(k=self.config.k)
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

    @classmethod
    def from_config(cls, config: ClassifierConfig) -> "ApplicationClassifier":
        """Construct a classifier from a :class:`ClassifierConfig` (same as ``cls(config)``)."""
        return cls(config)

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled classifier.

        A classifier pickled before 8.0 has no ``config`` in its state;
        it gets the config rebuilt from its fitted components.
        """
        self.__dict__.update(state)
        if "config" not in state:
            self.config = ClassifierConfig(
                metric_names=self.preprocessor.selector.names,
                n_components=self.pca.n_components,
                min_variance_fraction=self.pca.min_variance_fraction,
                k=self.knn.k,
                compute_dtype=self.compute_dtype,
                clock=None if self.clock is DEFAULT_CLOCK else self.clock,
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
    def classify_series(self, series: SnapshotSeries) -> ClassificationResult:
        """Classify every snapshot of *series* and aggregate.

        The one-series case of the stacked kernel that
        :class:`~repro.serve.batch.BatchClassifier` runs over a fleet,
        so each snapshot's score and class are bit-identical to the
        batched and streaming paths, and the §5.3 stage timings come
        from the same six clock reads.  Returns the one run's view of
        the call's :class:`BatchResult`.

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
        registry = obs_get_registry()
        with registry.span("pipeline.classify", clock=self.clock):
            results, start = self._classify_stacked([series.node], [series.matrix], [0, len(series)])
            stage_seconds = results.stage_seconds
            # Under a request trace (an enclosing span carrying a
            # nonzero trace id) the stages also become child spans,
            # laid end to end from the kernel's first clock read, so
            # tracing adds no clock read.
            if registry.current_trace_id():
                spans = []
                for stage, duration in zip(PIPELINE_STAGE_NAMES, stage_seconds):
                    spans.append((f"pipeline.stage.{stage}", start, duration))
                    start += duration
                registry.emit_spans(spans)
        if registry.enabled:
            for hist, duration in zip(registry.get(_STAGE_SECONDS), stage_seconds):
                hist.observe(duration)
            registry.get(_SNAPSHOTS).inc(len(series))
            registry.get(_RUNS).inc()
        return results[0]

    def _classify_stacked(
        self, nodes: Sequence[str], matrices: Sequence[np.ndarray], offsets: Sequence[int]
    ) -> tuple[BatchResult, float]:
        """The staged classify kernel, once over many series' stacked rows.

        Takes the series as :func:`_stack_runs` lays them out: their
        nodes, their ``(n, m_i)`` metric matrices and the row offsets.
        Gathers every series' selected metric rows into one ``(rows, p)``
        buffer at the compute dtype, runs the :meth:`classify_rows`
        steps over the stack, and packages the compositions of all runs
        at once, reading the clock once before the gather and once after
        each of the five stages.  Returns the :class:`BatchResult` (runs
        in input order, its ``stage_seconds`` the five stage durations
        in :data:`~repro.obs.context.PIPELINE_STAGE_NAMES` order) and
        the first clock read.  A run's ``timings`` are the stage costs
        apportioned by its share of the stacked snapshots, so summed
        per-run timings reproduce the totals (§5.3 accounting).

        The caller validates: the classifier is trained, there is at
        least one series and no series is empty.
        """
        clock = self.clock

        t = clock()
        raw = _gather_rows(matrices, offsets, self._metric_idx, self._dtype)
        t_gather = clock()

        # --- the classify_rows kernel, once over the stacked rows.
        features = self.normalize_rows(raw)
        t_normalized = clock()
        scores_all = self.project_rows(features)
        t_projected = clock()
        class_vector_all = self.knn.predict_rows(scores_all)
        t_searched = clock()
        packed = _pack_compositions(offsets, class_vector_all)
        t_done = clock()

        stage_seconds = (
            t_gather - t,
            t_normalized - t_gather,
            t_projected - t_normalized,
            t_searched - t_projected,
            t_done - t_searched,
        )
        return BatchResult(nodes, offsets, class_vector_all, scores_all, *packed, stage_seconds), t

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
        weights.  Either way each score is the sum of ``p`` per-feature
        terms added strictly in order (bias first, then term 0, then 1,
        …), so row *i*'s scores do not depend on *m*.  Up to
        :data:`_PROJECT_STACK_MAX_ROWS` rows the terms are laid out as a
        ``(p, q, m)`` stack — one broadcast multiply — and summed by
        ``np.add.accumulate``; above it they are added one feature at a
        time into a ``(q, m)`` buffer, which is the same left-to-right
        order without the stack's memory traffic.  Both give the same
        bits.  *features* is not modified.
        """
        m = features.shape[0]
        bias = None
        if self.compute_dtype != "float64":
            weights, bias = self.fused_weights_, self.fused_bias_[:, None]  # (p, q), (q, 1)
            rows = features.T
        else:
            weights = self.pca.components_.T  # (p, q)
            rows = np.subtract(features.T, self.pca.mean_[:, None], order="C")  # (p, m)
        # Products are written into compute-dtype buffers, so float64
        # rows given to a float32 model round each product to float32,
        # as the stack always did.
        if m <= _PROJECT_STACK_MAX_ROWS:
            terms = np.empty((weights.shape[0], weights.shape[1], m), dtype=self._dtype)
            np.multiply(weights[:, :, None], rows[:, None, :], out=terms)  # (p, q, m)
            if bias is not None:
                terms[0] += bias
            np.add.accumulate(terms, axis=0, out=terms)
            return terms[-1].T.copy()
        rows = np.ascontiguousarray(rows)
        acc = np.empty((weights.shape[1], m), dtype=self._dtype)
        np.multiply(weights[0][:, None], rows[0], out=acc)  # (q, m)
        if bias is not None:
            acc += bias
        term = np.empty_like(acc)
        for i in range(1, weights.shape[0]):
            acc += np.multiply(weights[i][:, None], rows[i], out=term)
        return acc.T.copy()
