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

from repro.experiments.fleet import profile_fleet
from repro.serve.bench import run_dtype_benchmark, run_throughput_benchmark

from conftest import emit

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


def test_serve_throughput(classifier, out_dir, smoke):
    runs = SMOKE_RUNS if smoke else FULL_RUNS
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    floor = SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP

    series_list = profile_fleet(runs, seed=100)
    result = run_throughput_benchmark(classifier, series_list, repeats=repeats)

    payload = dict(result.to_dict(), mode="smoke" if smoke else "full", floor=floor)
    emit(out_dir, "BENCH_serve.json", json.dumps(payload, indent=2, sort_keys=True))

    assert result.bit_identical, "batched results diverged from the sequential path"
    assert result.speedup >= floor, (
        f"batch speedup {result.speedup:.2f}x below the {floor:.1f}x floor "
        f"(sequential {result.sequential_ms:.2f} ms vs batch {result.batch_ms:.2f} ms "
        f"over {result.num_runs} runs / {result.num_snapshots} snapshots)"
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
    result = run_dtype_benchmark(classifier, classifier_f32, series_list, repeats=repeats)

    payload = dict(
        result.to_dict(),
        mode="smoke" if smoke else "full",
        floor=MIN_F32_SPEEDUP,
        min_agreement=MIN_F32_AGREEMENT,
    )
    emit(out_dir, "BENCH_serve_f32.json", json.dumps(payload, indent=2, sort_keys=True))

    assert result.f32_bit_identical, (
        "float32 batched results diverged from the float32 sequential path"
    )
    assert result.label_agreement >= MIN_F32_AGREEMENT, (
        f"float32 label agreement {result.label_agreement:.4f} below the "
        f"{MIN_F32_AGREEMENT:.0%} tolerance-mode guarantee"
    )
    assert result.speedup >= MIN_F32_SPEEDUP, (
        f"float32 speedup {result.speedup:.2f}x below the {MIN_F32_SPEEDUP:.1f}x floor "
        f"(float64 batch {result.batch_f64_ms:.2f} ms vs float32 batch "
        f"{result.batch_f32_ms:.2f} ms over {result.num_runs} runs / "
        f"{result.num_snapshots} snapshots)"
    )
