"""One classify kernel: batch ≡ series ≡ one call ≡ row by row (hypothesis).

``classify_series``, ``BatchClassifier.classify_batch`` and the online
paths all run ``ApplicationClassifier.classify_rows``'s steps, whose
results for a row do not depend on the rows around it.  On generated
fleets — random run counts and lengths, duplicated rows, rows scaled
away from the training pool, runs longer than the kNN chunk — four ways
of classifying the same snapshots must give bitwise-equal class vectors,
and the batch and per-run paths bitwise-equal scores, in both dtypes.
The batch's per-run views must equal ``classify_series`` field by field,
and its packaging and gather the per-run definitions they replace.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import ALL_CLASSES, ClassComposition, SnapshotClass, application_category
from repro.core import pipeline
from repro.core.config import ClassifierConfig
from repro.core.pipeline import ApplicationClassifier, BatchResult, _gather_rows, _pack_compositions
from repro.metrics.series import SnapshotSeries
from repro.serve.batch import BatchClassifier

#: Small enough that a generated run spans several neighbor-search chunks.
CHUNK = 5
DTYPES = ("float64", "float32")


@pytest.fixture(scope="module")
def models(training_outcome):
    """Per dtype, a classifier trained on the paper's runs with a tiny kNN chunk."""
    data = [(run.series, training_outcome.labels[key]) for key, run in training_outcome.runs.items()]
    built = {}
    for dtype in DTYPES:
        clf = ApplicationClassifier(ClassifierConfig(compute_dtype=dtype)).train(data)
        clf.knn.chunk_size = CHUNK
        built[dtype] = clf
    return built


@pytest.fixture(scope="module")
def raw_pool(training_outcome):
    """Every training snapshot as a ``(33, n)`` metric-column pool."""
    return np.hstack([run.series.matrix for run in training_outcome.runs.values()])


@st.composite
def fleets(draw):
    """Run specs: per run, pool column indices and a scale factor.

    The first run is longer than ``CHUNK``; the last row of the last run
    repeats an earlier row of the fleet, so every fleet has a duplicate.
    """
    n_runs = draw(st.integers(1, 5))
    runs = []
    for i in range(n_runs):
        low = CHUNK + 1 if i == 0 else 1
        length = draw(st.integers(low, 3 * CHUNK))
        columns = draw(st.lists(st.integers(0, 10**6), min_size=length, max_size=length))
        scale = draw(st.sampled_from([1.0, 1.0, 0.25, 4.0]))
        runs.append((columns, scale))
    columns, scale = runs[-1]
    donor_run = draw(st.integers(0, n_runs - 1))
    donor_row = draw(st.integers(0, len(runs[donor_run][0]) - 1))
    runs[-1] = (columns + [runs[donor_run][0][donor_row]], scale)
    return runs


def build_series(specs, raw_pool):
    """Materialize run specs into snapshot series over *raw_pool*."""
    fleet = []
    for i, (columns, scale) in enumerate(specs):
        idx = np.asarray(columns) % raw_pool.shape[1]
        matrix = raw_pool[:, idx] * scale
        fleet.append(
            SnapshotSeries(
                node=f"node{i}",
                timestamps=5.0 * np.arange(len(idx), dtype=np.float64),
                matrix=matrix,
            )
        )
    return fleet


@pytest.mark.parametrize("dtype", DTYPES)
@given(specs=fleets())
@settings(max_examples=40, deadline=None)
def test_four_paths_agree_bitwise(models, raw_pool, dtype, specs):
    clf = models[dtype]
    fleet = build_series(specs, raw_pool)
    names = clf.preprocessor.selector.names
    rows = np.concatenate([series.feature_matrix(names) for series in fleet])

    batch = BatchClassifier(clf).classify_batch(fleet)
    series = [clf.classify_series(s) for s in fleet]
    one_call = clf.classify_rows(rows)
    row_by_row = np.concatenate([clf.classify_rows(rows[i : i + 1]) for i in range(rows.shape[0])])

    batch_codes = np.concatenate([r.class_vector for r in batch])
    series_codes = np.concatenate([r.class_vector for r in series])
    assert np.array_equal(batch_codes, series_codes)
    assert np.array_equal(series_codes, one_call)
    assert np.array_equal(one_call, row_by_row)
    for got, want in zip(batch, series):
        assert got.scores.dtype == want.scores.dtype == np.dtype(dtype)
        assert np.array_equal(got.scores, want.scores)
        assert got.composition == want.composition
        assert got.application_class is want.application_class


@st.composite
def class_vector_fleets(draw):
    """Per run, a class vector; some runs sit exactly on the idle band's edges.

    A run of ``20·j`` snapshots with ``3·j`` or ``18·j`` of them IDLE has
    an idle fraction of exactly 0.15 or 0.9, the two bounds of the
    "Idle + Others" category.
    """
    vectors = []
    for _ in range(draw(st.integers(1, 12))):
        edge = draw(st.sampled_from([None, None, 0.15, 0.9]))
        if edge is None:
            codes = draw(st.lists(st.integers(0, len(ALL_CLASSES) - 1), min_size=1, max_size=60))
        else:
            j = draw(st.integers(1, 4))
            idle = round(edge * 20) * j
            busy = st.integers(1, len(ALL_CLASSES) - 1)
            codes = [int(SnapshotClass.IDLE)] * idle + draw(
                st.lists(busy, min_size=20 * j - idle, max_size=20 * j - idle)
            )
            codes = draw(st.permutations(codes))
        vectors.append(np.asarray(codes, dtype=np.int64))
    return vectors


def assert_no_shared_memory(results):
    """No two results' ``class_vector``/``scores`` arrays overlap."""
    arrays_of = [array for r in results for array in (r.class_vector, r.scores)]
    for a in range(len(arrays_of)):
        for b in range(a + 1, len(arrays_of)):
            assert not np.shares_memory(arrays_of[a], arrays_of[b])


@given(vectors=class_vector_fleets())
@settings(max_examples=100, deadline=None)
def test_packaged_results_match_the_per_run_definitions(vectors):
    """Each view of a packed class vector ≡ from_class_vector, dominant() and application_category per run."""
    lengths = [len(v) for v in vectors]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    class_vector_all = np.concatenate(vectors)
    scores_all = np.random.default_rng(len(class_vector_all)).normal(size=(len(class_vector_all), 2))
    nodes = [f"node{i}" for i in range(len(vectors))]
    packed = _pack_compositions(offsets, class_vector_all)
    results = BatchResult(nodes, offsets, class_vector_all, scores_all, *packed, (0.0, 0.0, 0.0, 0.0, 0.0))

    assert len(results) == len(vectors)
    for i, (result, vector) in enumerate(zip(results, vectors)):
        composition = ClassComposition.from_class_vector(vector)
        assert result.node == f"node{i}"
        assert result.num_samples == len(vector)
        assert result.composition == composition
        assert result.application_class is composition.dominant()
        assert result.category == application_category(composition)
        assert np.array_equal(result.class_vector, vector)
        assert np.array_equal(result.scores, scores_all[offsets[i] : offsets[i + 1]])
    assert_no_shared_memory(results)


@st.composite
def small_fleets(draw):
    """Run specs of 1 to 8 runs, each 1 to 12 snapshots long."""
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from([1, 1, 2, draw(st.integers(1, 12))]))
        columns = draw(st.lists(st.integers(0, 10**6), min_size=length, max_size=length))
        runs.append((columns, draw(st.sampled_from([1.0, 0.25, 4.0]))))
    return runs


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@given(specs=small_fleets())
@settings(max_examples=40, deadline=None)
def test_batch_views_equal_classify_series(models, raw_pool, dtype, specs):
    """Every view ≡ classify_series on its run; per-run timings sum to the call's stages."""
    clf = models[dtype]
    fleet = build_series(specs, raw_pool)
    batch = BatchClassifier(clf).classify_batch(fleet)

    assert len(batch) == len(fleet)
    for i, series in enumerate(fleet):
        # A negative index builds the view; the positive one finds it cached.
        got, want = batch[i - len(fleet)], clf.classify_series(series)
        assert batch[i] is got
        assert_same_bits(got.class_vector, want.class_vector)
        assert_same_bits(got.scores, want.scores)
        assert got.composition == want.composition
        assert got.application_class is want.application_class
        assert got.category == want.category
        assert got.node == want.node == series.node
        assert got.num_samples == want.num_samples == len(series)
    assert list(batch[1:]) == [batch[i] for i in range(1, len(fleet))]
    assert_no_shared_memory(batch)

    filter_s, normalize_s, pca_s, classify_s, vote_s = batch.stage_seconds
    totals = {
        "preprocess_s": filter_s + normalize_s,
        "pca_s": pca_s,
        "classify_s": classify_s,
        "vote_s": vote_s,
    }
    for stage, total in totals.items():
        assert getattr(batch.timings, stage) == total
        summed = math.fsum(getattr(r.timings, stage) for r in batch)
        assert math.isclose(summed, total, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("mean_run", [0, pipeline._CONCAT_MAX_MEAN_RUN])
@pytest.mark.parametrize("dtype", DTYPES)
@given(specs=small_fleets())
@settings(max_examples=40, deadline=None)
def test_gather_equals_the_per_series_fancy_index(models, raw_pool, dtype, mean_run, specs):
    """Both gathers (one concatenate, or run by run) ≡ each series' own fancy index, to the bit."""
    clf = models[dtype]
    fleet = build_series(specs, raw_pool)
    idx = clf._metric_idx
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in fleet])]).tolist()
    with mock.patch.object(pipeline, "_CONCAT_MAX_MEAN_RUN", mean_run):
        raw = _gather_rows([s.matrix for s in fleet], offsets, idx, np.dtype(dtype))

    want = np.empty((offsets[-1], idx.shape[0]), dtype=dtype)
    for s, o in zip(fleet, offsets):
        want[o : o + len(s)] = s.matrix[idx, :].T
    assert_same_bits(raw, want)


def test_empty_batch_is_an_empty_result(models):
    for clf in models.values():
        batch = BatchClassifier(clf)
        results = batch.classify_batch([])
        assert results == []
        assert len(results) == 0 and list(results) == [] and results[:] == []
        with pytest.raises(IndexError):
            results[0]
        traced, stage_seconds = batch.classify_batch_traced([])
        assert traced == [] and stage_seconds == (0.0, 0.0, 0.0, 0.0, 0.0)


def reference_project_rows(clf, features):
    """``project_rows`` as one ``(terms, q, m)`` stack summed by ``np.add.accumulate``."""
    m = features.shape[0]
    if clf.compute_dtype != "float64":
        weights = clf.fused_weights_
        terms = np.empty((weights.shape[0] + 1, weights.shape[1], m), dtype=clf._dtype)
        terms[0] = clf.fused_bias_[:, None]
        np.multiply(weights[:, :, None], features.T[:, None, :], out=terms[1:])
    else:
        centered = np.subtract(features.T, clf.pca.mean_[:, None], order="C")
        terms = clf.pca.components_.T[:, :, None] * centered[:, None, :]
    np.add.accumulate(terms, axis=0, out=terms)
    return terms[-1].T.copy()


@pytest.mark.parametrize("dtype", DTYPES)
@given(
    rows=st.sampled_from([1, 2, 31, pipeline._PROJECT_STACK_MAX_ROWS, pipeline._PROJECT_STACK_MAX_ROWS + 1, 700]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    wide=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_project_rows_equals_the_term_stack(models, raw_pool, dtype, rows, seed, scale, wide):
    """Both projection forms (stack and per-feature loop) ≡ the accumulate reference, to the bit.

    *wide* hands float64 rows straight to the model: a float32 model
    still returns float32 scores, each product rounded once to float32.
    """
    clf = models[dtype]
    rng = np.random.default_rng(seed)
    raw = raw_pool[clf._metric_idx][:, rng.integers(0, raw_pool.shape[1], rows)].T * scale
    raw = np.ascontiguousarray(raw, dtype=np.float64 if wide else dtype)
    features = raw if wide else clf.normalize_rows(raw)
    before = features.copy()
    got = clf.project_rows(features)
    assert got.flags.c_contiguous and got.dtype == np.dtype(dtype)
    assert_same_bits(got, reference_project_rows(clf, features))
    assert_same_bits(features, before)
