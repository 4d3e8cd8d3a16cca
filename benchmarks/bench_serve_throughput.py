"""Serving-layer throughput — the batch kernel must stay ≥ 3× sequential.

Times ``classify_series`` in a per-run loop against
``BatchClassifier.classify_batch`` on a 64-run fleet of short monitoring
windows (the serving regime: many concurrent runs classified every
scheduling round), asserting bit-identity of every output along the way.
The arms are timed in interleaved pairs with a min-of-repeats estimator,
so slow clock drift moves both arms together instead of biasing one.

Full mode gates the speedup at ≥ 3.0× (the acceptance floor measured
with ample headroom on an idle machine) and writes the trajectory point
``BENCH_serve.json``.  CI runs with ``--smoke``: a smaller fleet, fewer
repeats, and a noise-tolerant 1.5× floor that still fails if batching
regresses to scalar dispatch.

A second bench times the float32 tolerance mode against the float64
*batched* path and writes ``BENCH_serve_f32.json``.  It uses a
long-window fleet (10–30 min monitoring windows, thousands of stacked
snapshots) rather than the short-window fleet above: the dtype changes
per-snapshot kernel cost — projection, distance assembly, top-k — so the
comparison runs in the regime where that cost dominates, not the
per-run dispatch overhead both dtypes share.  Its floor (1.2× in both
modes) fails if the fused float32 kernel stops out-running
the float64 reference, and the run aborts if float32 label agreement
drops below the documented 99% guarantee.
"""

import json
from functools import partial

import numpy as np

from repro.experiments.fleet import profile_fleet
from repro.serve.batch import BatchClassifier

from conftest import best_of_pairs, emit

#: Full-mode fleet and gate (the acceptance criterion's 64-run batch).
FULL_RUNS = 64
FULL_REPEATS = 30
FULL_MIN_SPEEDUP = 3.0
#: Smoke-mode fleet and gate (CI shared runners: noisy neighbours).
SMOKE_RUNS = 32
SMOKE_REPEATS = 8
SMOKE_MIN_SPEEDUP = 1.5
#: Float32 bench fleet: long monitoring windows so per-snapshot kernel
#: cost (the thing the dtype changes) dominates per-run dispatch, and
#: enough stacked snapshots that the distance matrices of *both* arms
#: exceed the last-level cache — in-cache fleets make the comparison a
#: cache-residency lottery instead of a bandwidth measurement.
F32_FULL_RUNS = 48
F32_SMOKE_RUNS = 32
F32_BASE_DURATION_S = 1500.0
F32_DURATION_STEP_S = 600.0
#: Float32-over-float64-batched gate (same floor in smoke and full: the
#: two arms share the fleet, so runner noise cancels between them).
MIN_F32_SPEEDUP = 1.2
#: Tolerance-mode label agreement guarantee (docs/API.md § Numeric modes).
MIN_F32_AGREEMENT = 0.99


def _bit_identical(sequential, batched) -> bool:
    """True iff every batched result matches its sequential twin bit for bit."""
    return all(
        np.array_equal(seq.class_vector, bat.class_vector)
        and np.array_equal(seq.scores, bat.scores)
        and seq.composition == bat.composition
        and seq.application_class is bat.application_class
        and seq.category == bat.category
        for seq, bat in zip(sequential, batched)
    )


def test_serve_throughput(classifier, out_dir, smoke):
    runs = SMOKE_RUNS if smoke else FULL_RUNS
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    floor = SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP

    series_list = profile_fleet(runs, seed=100)
    batched = partial(BatchClassifier(classifier).classify_batch, series_list)

    def sequential():
        return [classifier.classify_series(s) for s in series_list]

    # The untimed warm-up pass of each arm doubles as the bit-identity check.
    identical = _bit_identical(sequential(), batched())
    sequential_s, batch_s = best_of_pairs([sequential, batched], repeats)
    speedup = sequential_s / batch_s

    payload = {
        "num_runs": runs,
        "num_snapshots": int(sum(len(s) for s in series_list)),
        "repeats": repeats,
        "sequential_ms": sequential_s * 1e3,
        "batch_ms": batch_s * 1e3,
        "speedup": speedup,
        "bit_identical": identical,
        "mode": "smoke" if smoke else "full",
        "floor": floor,
    }
    emit(out_dir, "BENCH_serve.json", json.dumps(payload, indent=2, sort_keys=True))

    assert identical, "batched results diverged from the sequential path"
    assert speedup >= floor, (
        f"batch speedup {speedup:.2f}x below the {floor:.1f}x floor "
        f"(sequential {sequential_s * 1e3:.2f} ms vs batch {batch_s * 1e3:.2f} ms "
        f"over {runs} runs / {payload['num_snapshots']} snapshots)"
    )


def test_serve_throughput_float32(classifier, classifier_f32, out_dir, smoke):
    runs = F32_SMOKE_RUNS if smoke else F32_FULL_RUNS
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS

    series_list = profile_fleet(
        runs,
        seed=100,
        base_duration_s=F32_BASE_DURATION_S,
        duration_step_s=F32_DURATION_STEP_S,
    )
    batched64 = partial(BatchClassifier(classifier).classify_batch, series_list)
    batched32 = partial(BatchClassifier(classifier_f32).classify_batch, series_list)

    # Untimed warm-up pass of each arm: its outputs give the label
    # agreement, and the float32 batch must equal the float32 sequential
    # path bit for bit (the same-dtype guarantee).
    results64, results32 = batched64(), batched32()
    f32_identical = _bit_identical(
        [classifier_f32.classify_series(s) for s in series_list], results32
    )
    labels64 = np.concatenate([r.class_vector for r in results64])
    labels32 = np.concatenate([r.class_vector for r in results32])
    agreement = float(np.mean(labels64 == labels32))
    f64_s, f32_s = best_of_pairs([batched64, batched32], repeats)
    speedup = f64_s / f32_s

    payload = {
        "num_runs": runs,
        "num_snapshots": int(labels64.shape[0]),
        "repeats": repeats,
        "batch_f64_ms": f64_s * 1e3,
        "batch_f32_ms": f32_s * 1e3,
        "speedup": speedup,
        "label_agreement": agreement,
        "f32_bit_identical": f32_identical,
        "mode": "smoke" if smoke else "full",
        "floor": MIN_F32_SPEEDUP,
        "min_agreement": MIN_F32_AGREEMENT,
    }
    emit(out_dir, "BENCH_serve_f32.json", json.dumps(payload, indent=2, sort_keys=True))

    assert f32_identical, "float32 batched results diverged from the float32 sequential path"
    assert agreement >= MIN_F32_AGREEMENT, (
        f"float32 label agreement {agreement:.4f} below the "
        f"{MIN_F32_AGREEMENT:.0%} tolerance-mode guarantee"
    )
    assert speedup >= MIN_F32_SPEEDUP, (
        f"float32 speedup {speedup:.2f}x below the {MIN_F32_SPEEDUP:.1f}x floor "
        f"(float64 batch {f64_s * 1e3:.2f} ms vs float32 batch "
        f"{f32_s * 1e3:.2f} ms over {runs} runs / {payload['num_snapshots']} snapshots)"
    )
