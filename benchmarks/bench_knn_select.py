"""kNN top-k selection — the brute-force search must stay ≥ 1.5× a partial sort.

Times ``KNeighborsClassifier._kneighbors_brute``, the blocked
brute-force search behind ``kneighbors_rows`` (its only route for
float32 models and small calls, and the tree route's fallback) —
distance assembly plus k masked ``argmin`` passes — against a
reference arm that runs the same ``_sq_distances`` kernel followed by
the selection it replaced: ``argpartition`` for the k smallest, then a
stable ``argsort`` of those k.  Both arms search the Table-2 training pool of the fitted classifier
with the same 256 query rows: pool rows at seeded random positions, a
quarter of them exact pool hits (zero distances, ties among duplicated
snapshots) and the rest jittered by 1% of the pool's spread.

Before any timing, the brute-force search must be bit-identical to a full
stable ``argsort`` of each distance row — the (squared distance, pool
index) tie rule — in indices and, after ``sqrt``, in distances.  The
arms are timed in interleaved pairs with a best-of-N estimator, so a
slow period of the host moves both arms together.  The gate is a ratio
of two arms on the same machine, so it does not depend on the hardware;
the same 1.5× floor holds in smoke and full mode and for both compute
dtypes.  Each dtype's result is written to
``benchmarks/out/BENCH_knn_select_<dtype>.json``.
"""

import json

import numpy as np
import pytest

from repro.core.knn import _sq_distances

from conftest import best_of_pairs, emit, knn_queries

#: Query rows per call.
QUERY_ROWS = 256
#: Timed pairs, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 40, 40
SMOKE_REPEATS, SMOKE_CALLS = 12, 20
#: The gate, the same in both modes.
MIN_SPEEDUP = 1.5


def _partial_sort_kneighbors(x, cols, sq_norms, k):
    """The replaced selection: argpartition, then a stable sort of the k."""
    d2 = _sq_distances(x, cols, sq_norms)
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    part_d = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1), np.sqrt(np.take_along_axis(part_d, order, axis=1))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_knn_select_speedup(dtype, classifier, classifier_f32, out_dir, smoke):
    knn = (classifier if dtype == "float64" else classifier_f32).knn
    pool, k = knn.training_points, knn.k
    assert pool.dtype == np.dtype(dtype)
    cols = np.ascontiguousarray(pool.T)
    x = knn_queries(pool, QUERY_ROWS)

    idx, dist = knn._kneighbors_brute(x)
    d2 = _sq_distances(x, cols, knn.training_sq_norms)
    want = np.argsort(d2, axis=1, kind="stable")[:, :k]
    assert np.array_equal(idx, want), (
        "the brute-force search left (squared distance, pool index) order"
    )
    assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, want, axis=1))), (
        "the brute-force search's distances are not the kernel's bits"
    )
    ref_idx, _ = _partial_sort_kneighbors(x, cols, knn.training_sq_norms, k)

    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    masked, reference = best_of_pairs(
        [
            lambda: knn._kneighbors_brute(x),
            lambda: _partial_sort_kneighbors(x, cols, knn.training_sq_norms, k),
        ],
        repeats,
        calls,
    )
    speedup = reference / masked

    payload = {
        "dtype": dtype,
        "mode": "smoke" if smoke else "full",
        "pool_rows": int(len(pool)),
        "query_rows": QUERY_ROWS,
        "k": k,
        "kneighbors_us_per_call": masked * 1e6,
        "partial_sort_us_per_call": reference * 1e6,
        "speedup": speedup,
        "floor": MIN_SPEEDUP,
        "rows_reordered_vs_partial_sort": int((ref_idx != idx).any(axis=1).sum()),
    }
    emit(out_dir, f"BENCH_knn_select_{dtype}.json", json.dumps(payload, indent=2, sort_keys=True))

    assert speedup >= MIN_SPEEDUP, (
        f"{dtype} brute-force search {speedup:.2f}x the partial-sort selection, below the "
        f"{MIN_SPEEDUP:.1f}x floor ({masked * 1e6:.1f} vs {reference * 1e6:.1f} us per "
        f"{QUERY_ROWS}-row call)"
    )
