"""Closed-form kNN vote — the k = 3 vote must stay ≥ 3× the counting vote.

Times ``KNeighborsClassifier.vote`` on the paper's unweighted k = 3,
which takes the closed form (three equal labels win, else the pair,
else the least (distance, class code)), against ``_vote_counting``,
the per-class counting vote it replaces there and which still serves
``k != 3`` and rows holding a NaN distance.  Both arms vote on the
same neighbor rows: those of the long-window fleet of
``bench_serve_throughput.py``'s float32 gate in smoke mode (32 runs of
25–65 min monitoring windows, 16,920 snapshots), searched by each
dtype's fitted classifier through ``normalize_rows``, ``project_rows``
and ``kneighbors_rows``.

Before any timing, the two arms must return identical class codes.
The arms are timed in interleaved rounds, every other round in reverse
order, and the gated ratio is the median over rounds of each round's
ratio, so a slow period of the host moves both sides of a ratio
together.  The gate is a
ratio of two arms on the same machine, so it does not depend on the
hardware; it is the same in smoke and full mode and applies to both
dtypes.  Each dtype's result is written to
``benchmarks/out/BENCH_knn_vote_<dtype>.json``.
"""

import json

import numpy as np
import pytest

from repro.experiments.fleet import profile_fleet

from conftest import emit, interleaved_rounds

#: The long-window serve fleet (``bench_serve_throughput.py``'s float32 fleet, smoke mode).
FLEET_RUNS = 32
FLEET_BASE_DURATION_S = 1500.0
FLEET_DURATION_STEP_S = 600.0
#: Timed pairs, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 30, 4
SMOKE_REPEATS, SMOKE_CALLS = 10, 2
#: The gate, the same in both modes and dtypes.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def fleet_rows(classifier):
    """The serve fleet's selected metric rows, stacked: ``(16920, p)``."""
    fleet = profile_fleet(
        FLEET_RUNS, seed=100, base_duration_s=FLEET_BASE_DURATION_S, duration_step_s=FLEET_DURATION_STEP_S
    )
    names = classifier.preprocessor.selector.names
    return np.concatenate([series.feature_matrix(names) for series in fleet])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_knn_vote_speedup(dtype, classifier, classifier_f32, fleet_rows, out_dir, smoke):
    clf = classifier if dtype == "float64" else classifier_f32
    knn = clf.knn
    assert knn.k == 3 and not knn.weighted
    indices, distances = knn.kneighbors_rows(clf.project_rows(clf.normalize_rows(fleet_rows)))
    assert distances.dtype == np.dtype(dtype)

    closed = knn.vote(indices, distances)
    counted = knn._vote_counting(indices, distances)
    assert np.array_equal(closed, counted), "the closed-form vote changed a class code"

    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    times = interleaved_rounds(
        [lambda: knn.vote(indices, distances), lambda: knn._vote_counting(indices, distances)],
        repeats,
        calls,
    )
    closed_s, counted_s = times.min(axis=0)
    rows = len(indices)
    speedup = float(np.median(times[:, 1] / times[:, 0]))

    payload = {
        "dtype": dtype,
        "mode": "smoke" if smoke else "full",
        "rows": rows,
        "k": knn.k,
        "closed_form_ns_per_row": closed_s * 1e9 / rows,
        "counting_ns_per_row": counted_s * 1e9 / rows,
        "speedup": speedup,
        "floor": MIN_SPEEDUP,
    }
    emit(out_dir, f"BENCH_knn_vote_{dtype}.json", json.dumps(payload, indent=2, sort_keys=True))

    assert speedup >= MIN_SPEEDUP, (
        f"{dtype} closed-form vote {speedup:.2f}x the counting vote, below the "
        f"{MIN_SPEEDUP:.1f}x floor ({closed_s * 1e9 / rows:.0f} vs {counted_s * 1e9 / rows:.0f} ns/row)"
    )
