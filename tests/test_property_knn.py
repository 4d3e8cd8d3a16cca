"""Property-based tests for the k-NN classifier (hypothesis)."""

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.knn import KNeighborsClassifier, rowwise_sq_distances


def pools(min_n=5, max_n=40, dims=2, n_classes=3):
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        x = draw(
            arrays(
                np.float64,
                (n, dims),
                elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            )
        )
        y = draw(
            arrays(np.int64, (n,), elements=st.integers(0, n_classes - 1))
        )
        return x, y

    return st.composite(build)()


@given(pool=pools())
@settings(max_examples=60, deadline=None)
def test_training_point_with_unique_position_self_classifies_k1(pool):
    x, y = pool
    # Quantize and deduplicate so distinct points are well separated
    # (distances below GEMM-expansion float noise are not meaningful).
    x = np.round(x, 1)
    _, idx = np.unique(x, axis=0, return_index=True)
    x, y = x[np.sort(idx)], y[np.sort(idx)]
    if len(x) < 1:
        return
    knn = KNeighborsClassifier(k=1).fit(x, y)
    assert (knn.predict_rows(x) == y).all()


@given(pool=pools())
@settings(max_examples=60, deadline=None)
def test_prediction_is_always_a_neighbor_label(pool):
    x, y = pool
    if len(x) < 3:
        return
    knn = KNeighborsClassifier(k=3).fit(x, y)
    probe = x.mean(axis=0, keepdims=True)
    idx, _ = knn.kneighbors_rows(probe)
    pred = knn.predict_rows(probe)[0]
    assert pred in set(y[idx[0]])


@given(pool=pools())
@settings(max_examples=40, deadline=None)
def test_neighbor_distances_sorted(pool):
    x, y = pool
    if len(x) < 3:
        return
    knn = KNeighborsClassifier(k=3).fit(x, y)
    _, dist = knn.kneighbors_rows(x)
    assert np.all(np.diff(dist, axis=1) >= -1e-9)


@given(pool=pools(), shift=st.floats(-50, 50, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_translation_invariance(pool, shift):
    """k-NN on Euclidean distance is invariant to translating all data."""
    x, y = pool
    if len(x) < 3:
        return
    probe = np.array([[1.5, -2.5]])
    a = KNeighborsClassifier(k=3).fit(x, y).predict_rows(probe)
    b = KNeighborsClassifier(k=3).fit(x + shift, y).predict_rows(probe + shift)
    assert a[0] == b[0]


@given(
    a=arrays(np.float64, (6, 3), elements=st.floats(-1e4, 1e4, allow_nan=False)),
    b=arrays(np.float64, (4, 3), elements=st.floats(-1e4, 1e4, allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_symmetric_and_non_negative(a, b):
    d_ab = rowwise_sq_distances(a, b)
    d_ba = rowwise_sq_distances(b, a)
    assert np.all(d_ab >= 0)
    assert np.allclose(d_ab, d_ba.T, rtol=1e-7, atol=1e-4)


@given(pool=pools(min_n=9))
@settings(max_examples=30, deadline=None)
def test_chunked_prediction_equivalent(pool):
    x, y = pool
    knn_big = KNeighborsClassifier(k=3, chunk_size=1024).fit(x, y)
    knn_small = KNeighborsClassifier(k=3, chunk_size=2).fit(x, y)
    probes = x[::2]
    assert np.array_equal(knn_big.predict_rows(probes), knn_small.predict_rows(probes))


def lattice_pools(dtype):
    """A pool and queries on a small lattice: duplicates and equal distances are common."""

    def build(draw):
        n = draw(st.integers(5, 40))
        dims = draw(st.integers(1, 3))
        step = draw(st.sampled_from([1.0, 0.5, 0.1, 3.7]))
        cells = st.integers(-3, 3)
        pool = draw(arrays(np.int64, (n, dims), elements=cells)) * step
        queries = draw(arrays(np.int64, (draw(st.integers(1, 12)), dims), elements=cells)) * step
        k = draw(st.sampled_from([1, 3, 5]))
        return pool.astype(dtype), queries.astype(dtype), k

    return st.composite(build)()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kneighbors_equals_stable_argsort(dtype, data):
    """Top-k is the stable argsort's first k: (squared distance, pool index) order."""
    pool, queries, k = data.draw(lattice_pools(dtype))
    knn = KNeighborsClassifier(k=k, chunk_size=5).fit(pool, np.zeros(len(pool), dtype=np.int64))
    idx, dist = knn.kneighbors_rows(queries)
    d2 = rowwise_sq_distances(queries, pool)
    want = np.argsort(d2, axis=1, kind="stable")[:, :k]
    assert np.array_equal(idx, want)
    assert dist.dtype == np.dtype(dtype)
    assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, want, axis=1)))
    for i in range(len(queries)):
        one_idx, one_dist = knn.kneighbors_rows(queries[i : i + 1])
        assert np.array_equal(one_idx[0], idx[i])
        assert np.array_equal(one_dist[0], dist[i])


#: A wide lattice pool (many exact duplicates and equal distances):
#: two float64 or four float32 query rows fill a distance block.
WIDE_POOL = np.random.default_rng(0).integers(-50, 50, size=(40_000, 2)) * 0.5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_block_boundaries_keep_bits(dtype, data):
    """Blocks of a few rows: every row equals its one-row call and the stable argsort."""
    pool = WIDE_POOL.astype(dtype)
    knn = KNeighborsClassifier(k=3, chunk_size=data.draw(st.sampled_from([1, 3, 2048]))).fit(
        pool, np.zeros(len(pool), dtype=np.int64)
    )
    assert knn.block_rows <= 4
    cells = st.integers(-52, 52)
    queries = data.draw(arrays(np.int64, (data.draw(st.integers(1, 11)), 2), elements=cells))
    queries = (queries * 0.5).astype(dtype)
    idx, dist = knn.kneighbors_rows(queries)
    d2 = rowwise_sq_distances(queries, pool)
    want = np.argsort(d2, axis=1, kind="stable")[:, :3]
    assert np.array_equal(idx, want)
    assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, want, axis=1)))
    for i in range(len(queries)):
        one_idx, one_dist = knn.kneighbors_rows(queries[i : i + 1])
        assert np.array_equal(one_idx[0], idx[i])
        assert np.array_equal(one_dist[0], dist[i])


@st.composite
def vote_cases(draw):
    """Neighbor rows for ``vote``: labels, indices and distances from a small palette.

    Distances come from a palette of one to five values (among them
    ``0``, ``+inf`` and NaN), so equal distances, infinite rows and NaN
    rows are common; rows are sorted or not.  The bulk of each case is
    drawn from a seeded generator, so a case can hold up to 500 rows.
    """
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n_pool = draw(st.integers(3, 20))
    n_classes = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 500))
    palette = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, np.inf, np.nan]),
                st.floats(0, 1e6, allow_nan=False, allow_infinity=False, width=32),
            ),
            min_size=1,
            max_size=5,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, n_classes, n_pool)
    indices = rng.integers(0, n_pool, (rows, 3))
    distances = rng.choice(np.array(palette, dtype=dtype), size=(rows, 3))
    if draw(st.booleans()):
        distances.sort(axis=1)
    return labels, indices, distances


@given(case=vote_cases())
@settings(max_examples=200, deadline=None)
def test_vote_equals_the_counting_vote(case):
    """The closed-form k = 3 vote is the counting vote: ties, +inf, NaN, any row order."""
    labels, indices, distances = case
    knn = KNeighborsClassifier(k=3).fit(np.zeros((len(labels), 2)), labels)
    got = knn.vote(indices, distances)
    want = knn._vote_counting(indices, distances)
    assert got.dtype == want.dtype == np.dtype(np.int64)
    assert np.array_equal(got, want)
