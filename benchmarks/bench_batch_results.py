"""Columnar batch results — ``classify_batch`` must stay ≥ 1.25× the per-run packaging.

Times ``BatchClassifier.classify_batch``, which gathers the fleet with
one ``concatenate`` and one ``[metric_idx].T`` assignment and returns a
``BatchResult`` whose per-run results are built on access, against
``reference_classify_batch`` below: the same call as it stood before
``BatchResult``, with its per-series gather (one fancy index and
transpose per run) and ``_package_results`` (one ``ClassComposition``,
one ``ClassificationResult`` and one ``StageTimings`` per run, then
four timing attributes rewritten per run), copied here as the
reference.  All arms classify ``profile_fleet(64)``, the 508-snapshot
fleet of the layered benchmark's ``fleet_batch`` workload.

Before any timing, in both dtypes and under a counting fake clock (so
both arms see the same stage seconds), every run's result must match
the reference field for field: ``class_vector`` and ``scores`` to the
bit, composition, class, category, node, sample count and apportioned
timings.  The arms are timed in interleaved rounds, every other round
in reverse order, and each gated ratio is the median over rounds of
each round's ratio, so a slow period of the host moves both sides of a
ratio together.  Two
ratios are gated, the same in smoke and full mode: the call itself,
with no run's result built (≥ 1.25×), and the call plus a read of
every run's ``composition`` and ``timings``, against the reference
call plus the same reads (≥ 1×: a caller that reads every run, as the
resource manager and the service do, must not pay more than it did
for the per-run results).  The first ratio holds only while runs go
unread; the second is the cost every in-repo caller pays.  The result
is written to ``benchmarks/out/BENCH_batch_results.json``.
"""

import itertools
import json

import numpy as np
import pytest

from repro.core.labels import (
    ALL_CLASSES,
    DOMINANT_CATEGORIES,
    IDLE_MIX_HIGH,
    IDLE_MIX_LOW,
    INTERACTIVE_CATEGORY,
    ClassComposition,
    SnapshotClass,
)
from repro.core.pipeline import ClassificationResult, StageTimings
from repro.errors import EmptySeriesError, NotTrainedError
from repro.experiments.fleet import profile_fleet
from repro.obs import get_registry as obs_get_registry
from repro.serve.batch import BatchClassifier

from conftest import emit, interleaved_rounds

#: The fleet_batch fleet: 64 short monitoring windows, 508 snapshots.
FLEET_RUNS, FLEET_SEED = 64, 100
#: Timed rounds, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 40, 10
SMOKE_REPEATS, SMOKE_CALLS = 15, 5
#: The gates, the same in both modes.
MIN_SPEEDUP = 1.25
MIN_READ_ALL_SPEEDUP = 1.0


@pytest.fixture(scope="module")
def fleet():
    return profile_fleet(FLEET_RUNS, seed=FLEET_SEED)


def _package_results(series_list, lengths, offsets, class_vector_all, scores_all):
    """The per-run packaging ``BatchResult`` replaced (the reference)."""
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
            timings=StageTimings(),
        )
        for i, (series, o, m) in enumerate(zip(series_list, offsets, lengths))
    ]


def _reference_stacked(clf, series_list):
    """The stacked kernel with the per-series gather and per-run packaging."""
    clock = clf.clock
    t = clock()
    idx_cols = clf._metric_idx
    lengths = [s.matrix.shape[1] for s in series_list]
    offsets = [0]
    for m in lengths:
        offsets.append(offsets[-1] + m)
    total = offsets[-1]
    raw = np.empty((total, idx_cols.shape[0]), dtype=clf.compute_dtype)
    for i, s in enumerate(series_list):
        o = offsets[i]
        raw[o : o + lengths[i]] = s.matrix[idx_cols, :].T
    t_gather = clock()

    features = clf.normalize_rows(raw)
    t_normalized = clock()
    scores_all = clf.project_rows(features)
    t_projected = clock()
    class_vector_all = clf.knn.predict_rows(scores_all)
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
    return results


def reference_classify_batch(clf, series_list):
    """``BatchClassifier.classify_batch`` as it was, with obs disabled."""
    if not clf.trained:
        raise NotTrainedError("classifier not trained")
    for series in series_list:
        if len(series) == 0:
            raise EmptySeriesError("cannot classify an empty series")
    if not series_list:
        return []
    registry = obs_get_registry()
    with registry.span("serve.batch.classify", clock=clf.clock):
        return _reference_stacked(clf, series_list)


def result_fields(result):
    """Every field of a result, arrays as (dtype, shape, bytes)."""
    out = []
    for name in ("node", "num_samples", "class_vector", "composition", "application_class", "category", "scores", "timings"):
        value = getattr(result, name)
        out.append((value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value)
    return out


def ticking():
    """A counting fake clock: each read returns the next integer."""
    ticks = itertools.count(1)
    return lambda: float(next(ticks))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_batch_results_match_the_reference(dtype, classifier, classifier_f32, fleet):
    clf = classifier if dtype == "float64" else classifier_f32
    previous = clf.clock
    try:
        clf.clock = ticking()
        got = BatchClassifier(clf).classify_batch(fleet)
        clf.clock = ticking()
        want = reference_classify_batch(clf, fleet)
    finally:
        clf.clock = previous
    assert len(got) == len(want) == FLEET_RUNS
    for i, (a, b) in enumerate(zip(got, want)):
        assert result_fields(a) == result_fields(b), f"run {i} differs from the reference"


def read_every_run(results):
    """Read each run's composition and timings, as a caller recording every run does."""
    for result in results:
        result.composition, result.timings
    return results


def test_batch_results_speedup(classifier, fleet, out_dir, smoke):
    batch = BatchClassifier(classifier)
    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    times = interleaved_rounds(
        [
            lambda: batch.classify_batch(fleet),
            lambda: read_every_run(batch.classify_batch(fleet)),
            lambda: reference_classify_batch(classifier, fleet),
            lambda: read_every_run(reference_classify_batch(classifier, fleet)),
        ],
        repeats,
        calls,
    )
    call_s, read_all_s, reference_s, reference_read_all_s = times.min(axis=0)
    speedup = float(np.median(times[:, 2] / times[:, 0]))
    read_all = float(np.median(times[:, 3] / times[:, 1]))
    rows = sum(len(series) for series in fleet)

    payload = {
        "mode": "smoke" if smoke else "full",
        "runs": len(fleet),
        "rows": rows,
        "classify_batch_us": call_s * 1e6,
        "read_all_us": read_all_s * 1e6,
        "reference_us": reference_s * 1e6,
        "reference_read_all_us": reference_read_all_s * 1e6,
        "speedup": speedup,
        "read_all_speedup": read_all,
        "floor": MIN_SPEEDUP,
        "read_all_floor": MIN_READ_ALL_SPEEDUP,
    }
    emit(out_dir, "BENCH_batch_results.json", json.dumps(payload, indent=2, sort_keys=True))

    assert speedup >= MIN_SPEEDUP, (
        f"classify_batch {speedup:.2f}x the per-run packaging, below the {MIN_SPEEDUP:.2f}x floor "
        f"({call_s * 1e6:.0f} vs {reference_s * 1e6:.0f} us per call)"
    )
    assert read_all >= MIN_READ_ALL_SPEEDUP, (
        f"classify_batch with every run read {read_all:.2f}x the per-run packaging, below the "
        f"{MIN_READ_ALL_SPEEDUP:.2f}x floor ({read_all_s * 1e6:.0f} vs {reference_read_all_s * 1e6:.0f} us per call)"
    )
