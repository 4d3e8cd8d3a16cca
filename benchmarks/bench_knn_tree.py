"""Tree-candidate kNN search — the float64 tree route must stay ≥ 1.2× brute force.

Times ``KNeighborsClassifier.kneighbors_rows`` on a float64 model with
4096 query rows, which takes the tree route: the pool's ``cKDTree``
proposes ``k + TREE_SURPLUS`` candidates per row and the package's own
distance kernel recomputes and ranks them, sending any row it cannot
verify to the blocked brute-force search.  The reference arm is that
brute-force search itself, ``_kneighbors_brute``, on the same rows.
Both arms search the Table-2 training pool of the fitted classifier.
Two query sets are run: the in-distribution rows the other kNN gates
use (pool rows at seeded random positions, a quarter of them exact pool
hits and the rest jittered by 1% of the pool's spread), and uniform
out-of-distribution rows from a box three times the pool's extent,
where the tree prunes less.

Before any timing, each set's two arms must be bit-identical in
neighbor indices and distance bits, and the rows the tree route sent
to the fallback are counted.  The arms are timed in interleaved
rounds, every other round in reverse order, and each ratio is the
median over rounds of each round's ratio, so a slow period of the host
moves both sides of a ratio together.  The gate is a ratio of two arms on the same machine,
so it does not depend on the hardware; it applies to the
in-distribution set, the same in smoke and full mode.  The
out-of-distribution ratio is recorded, not gated.  Full mode also
records the speedup by rows per call, the sweep behind
``TREE_MIN_ROWS``.  The result is written to
``benchmarks/out/BENCH_knn_tree_float64.json``.
"""

import json

import numpy as np

from repro.core.knn import TREE_MIN_ROWS, TREE_SURPLUS

from conftest import emit, interleaved_rounds, knn_queries

#: Query rows per call.
QUERY_ROWS = 4096
#: Timed pairs, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 30, 8
SMOKE_REPEATS, SMOKE_CALLS = 10, 4
#: Rows per call of the full-mode crossover sweep.
SWEEP_ROWS = (1, 8, 16, 24, 32, 48, 64, 128, 256, 1024)
#: The gate, the same in both modes.
MIN_SPEEDUP = 1.2


def ood_queries(pool, rows: int, seed: int = 1):
    """*rows* uniform rows from a box three times the pool's extent, centred on it."""
    lo, hi = pool.min(axis=0), pool.max(axis=0)
    span = hi - lo
    rng = np.random.default_rng(seed)
    return rng.uniform(lo - span, hi + span, size=(rows, pool.shape[1])).astype(pool.dtype)


def fallback_rows(knn, x) -> int:
    """Run the tree route on *x*, asserting brute-force bits; return its fallback rows."""
    sent = []
    brute = knn._kneighbors_brute

    def counted(rows):
        sent.append(len(rows))
        return brute(rows)

    knn._kneighbors_brute = counted
    try:
        idx, dist = knn.kneighbors_rows(x)
    finally:
        del knn._kneighbors_brute
    ref_idx, ref_dist = knn._kneighbors_brute(x)
    assert np.array_equal(idx, ref_idx), "the tree route changed the neighbors"
    assert np.array_equal(dist.view(np.uint64), ref_dist.view(np.uint64)), (
        "the tree route changed the distance bits"
    )
    return sum(sent)


def speedup(knn, x, repeats: int, calls: int) -> tuple[float, float, float]:
    """Best seconds per call of the tree route and of brute force on *x*, and the median round's ratio."""
    times = interleaved_rounds([lambda: knn.kneighbors_rows(x), lambda: knn._kneighbors_brute(x)], repeats, calls)
    tree, brute = times.min(axis=0)
    return tree, brute, float(np.median(times[:, 1] / times[:, 0]))


def test_knn_tree_speedup(classifier, out_dir, smoke):
    knn = classifier.knn
    pool = knn.training_points
    assert pool.dtype == np.dtype(np.float64)
    assert QUERY_ROWS >= TREE_MIN_ROWS
    queries = {"in": knn_queries(pool, QUERY_ROWS), "ood": ood_queries(pool, QUERY_ROWS)}
    fallbacks = {name: fallback_rows(knn, x) for name, x in queries.items()}

    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    timed = {name: speedup(knn, x, repeats, calls) for name, x in queries.items()}
    tree, brute, ratio = timed["in"]
    ood_tree, ood_brute, ood_ratio = timed["ood"]

    payload = {
        "dtype": "float64",
        "mode": "smoke" if smoke else "full",
        "pool_rows": int(len(pool)),
        "query_rows": QUERY_ROWS,
        "k": knn.k,
        "candidates": knn.k + TREE_SURPLUS,
        "tree_min_rows": TREE_MIN_ROWS,
        "tree_ns_per_row": tree * 1e9 / QUERY_ROWS,
        "brute_ns_per_row": brute * 1e9 / QUERY_ROWS,
        "speedup": ratio,
        "fallback_rows": fallbacks["in"],
        "ood_tree_ns_per_row": ood_tree * 1e9 / QUERY_ROWS,
        "ood_brute_ns_per_row": ood_brute * 1e9 / QUERY_ROWS,
        "ood_speedup": ood_ratio,
        "ood_fallback_rows": fallbacks["ood"],
        "floor": MIN_SPEEDUP,
    }
    if not smoke:
        # The crossover sweep times the tree route directly: below
        # TREE_MIN_ROWS, kneighbors_rows would take brute force.
        sweep = {}
        for rows in SWEEP_ROWS:
            x = queries["in"][:rows]
            times = interleaved_rounds(
                [lambda: knn._kneighbors_tree(x), lambda: knn._kneighbors_brute(x)],
                FULL_REPEATS,
                max(1, QUERY_ROWS // rows // 4),
            )
            sweep[str(rows)] = float(np.median(times[:, 1] / times[:, 0]))
        payload["speedup_by_rows"] = sweep
    emit(out_dir, "BENCH_knn_tree_float64.json", json.dumps(payload, indent=2, sort_keys=True))

    assert ratio >= MIN_SPEEDUP, (
        f"float64 tree route {ratio:.2f}x brute force, below the {MIN_SPEEDUP:.1f}x floor "
        f"({tree * 1e9 / QUERY_ROWS:.0f} vs {brute * 1e9 / QUERY_ROWS:.0f} ns/row)"
    )
