"""Blocked kNN search — the brute-force search must stay ≥ 1.2× fresh 2048-row chunks.

Times ``KNeighborsClassifier._kneighbors_brute``, the blocked
brute-force search behind ``kneighbors_rows`` (its only route for
float32 models and small calls, and the tree route's fallback) —
distance blocks sized from the pool (``block_rows``, 300 float64 or 601
float32 rows for the Table-2 pool) assembled in the calling thread's
reused workspace, then k masked ``argmin`` passes — against a
reference arm with the search's previous memory layout: the same
``_sq_distances`` kernel over 2048-row chunks with fresh buffers for
every chunk, then the same ``_topk_into`` selection.  Both arms search
the Table-2 training pool of the fitted classifier with the same 4096
query rows: pool rows at seeded random positions, a quarter of them
exact pool hits and the rest jittered by 1% of the pool's spread.

Before any timing, the two arms must be bit-identical in neighbor
indices and distance bits.  The arms are timed in interleaved rounds,
every other round in reverse order, and the gated ratio is the median
over rounds of each round's ratio, so a slow period of the host moves
both sides of a ratio together.  The gate is a ratio of two arms on the same machine,
so it does not depend on the hardware; it applies to float64, where
the fresh 2048-row chunks are two 5.4 MB buffers that miss L2 and are
page-faulted in on every call.  Float32 is checked for bit-identity
and its ratio is recorded.  Each dtype's result is written to
``benchmarks/out/BENCH_knn_block_<dtype>.json``.
"""

import json

import numpy as np
import pytest

from repro.core.knn import _sq_distances

from conftest import emit, interleaved_rounds, knn_queries

#: Query rows per call.
QUERY_ROWS = 4096
#: Rows per chunk of the reference arm (the former fixed block).
REFERENCE_CHUNK = 2048
#: Timed pairs, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 30, 8
SMOKE_REPEATS, SMOKE_CALLS = 10, 4
#: The float64 gate, the same in both modes.
MIN_SPEEDUP = 1.2


def _fresh_chunks_kneighbors(knn, x):
    """The former layout: fresh ``(2048, n)`` buffers per chunk, then the same top-k."""
    cols = knn._cols
    indices = np.empty((len(x), knn.k), dtype=np.int64)
    distances = np.empty((len(x), knn.k), dtype=knn.dtype)
    for start in range(0, len(x), REFERENCE_CHUNK):
        stop = start + REFERENCE_CHUNK
        d2 = _sq_distances(x[start:stop], cols, knn.training_sq_norms)
        knn._topk_into(d2, indices[start:stop], distances[start:stop])
    return indices, distances


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_knn_block_speedup(dtype, classifier, classifier_f32, out_dir, smoke):
    knn = (classifier if dtype == "float64" else classifier_f32).knn
    pool = knn.training_points
    assert pool.dtype == np.dtype(dtype)
    x = knn_queries(pool, QUERY_ROWS)

    idx, dist = knn._kneighbors_brute(x)
    ref_idx, ref_dist = _fresh_chunks_kneighbors(knn, x)
    assert np.array_equal(idx, ref_idx), "blocked search changed the neighbors"
    assert np.array_equal(dist.view(f"u{dist.itemsize}"), ref_dist.view(f"u{dist.itemsize}")), (
        "blocked search changed the distance bits"
    )

    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    times = interleaved_rounds(
        [lambda: knn._kneighbors_brute(x), lambda: _fresh_chunks_kneighbors(knn, x)], repeats, calls
    )
    blocked, reference = times.min(axis=0)
    speedup = float(np.median(times[:, 1] / times[:, 0]))

    payload = {
        "dtype": dtype,
        "mode": "smoke" if smoke else "full",
        "pool_rows": int(len(pool)),
        "query_rows": QUERY_ROWS,
        "block_rows": knn.block_rows,
        "reference_chunk_rows": REFERENCE_CHUNK,
        "k": knn.k,
        "blocked_ns_per_row": blocked * 1e9 / QUERY_ROWS,
        "fresh_chunks_ns_per_row": reference * 1e9 / QUERY_ROWS,
        "speedup": speedup,
        "floor": MIN_SPEEDUP if dtype == "float64" else None,
    }
    emit(out_dir, f"BENCH_knn_block_{dtype}.json", json.dumps(payload, indent=2, sort_keys=True))

    if dtype == "float64":
        assert speedup >= MIN_SPEEDUP, (
            f"float64 blocked brute force {speedup:.2f}x fresh {REFERENCE_CHUNK}-row chunks, below "
            f"the {MIN_SPEEDUP:.1f}x floor ({blocked * 1e9 / QUERY_ROWS:.0f} vs "
            f"{reference * 1e9 / QUERY_ROWS:.0f} ns/row)"
        )
