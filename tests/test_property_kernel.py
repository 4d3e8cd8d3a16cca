"""One classify kernel: batch ≡ series ≡ one call ≡ row by row (hypothesis).

``classify_series``, ``BatchClassifier.classify_batch`` and the online
paths all run ``ApplicationClassifier.classify_rows``'s steps, whose
results for a row do not depend on the rows around it.  On generated
fleets — random run counts and lengths, duplicated rows, rows scaled
away from the training pool, runs longer than the kNN chunk — four ways
of classifying the same snapshots must give bitwise-equal class vectors,
and the batch and per-run paths bitwise-equal scores, in both dtypes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import ALL_CLASSES, ClassComposition, SnapshotClass, application_category
from repro.core.pipeline import ApplicationClassifier, _package_results
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
        clf = ApplicationClassifier(compute_dtype=dtype).train(data)
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


@given(vectors=class_vector_fleets())
@settings(max_examples=100, deadline=None)
def test_packaged_results_match_the_per_run_definitions(vectors):
    """Fleet-wide packaging ≡ from_class_vector, dominant() and application_category per run."""
    lengths = [len(v) for v in vectors]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    class_vector_all = np.concatenate(vectors)
    scores_all = np.random.default_rng(len(class_vector_all)).normal(size=(len(class_vector_all), 2))
    series_list = [SimpleNamespace(node=f"node{i}") for i in range(len(vectors))]
    results = _package_results(series_list, lengths, offsets, class_vector_all.copy(), scores_all.copy())

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
    arrays_of = [array for r in results for array in (r.class_vector, r.scores)]
    for a in range(len(arrays_of)):
        for b in range(a + 1, len(arrays_of)):
            assert not np.shares_memory(arrays_of[a], arrays_of[b])
