"""Shared fixtures for the benchmark harness.

Expensive experiment artefacts (the trained classifier, the ten-schedule
sweep) are built once per session and shared across benches.  Every bench
writes its regenerated table/figure to ``benchmarks/out/`` and also
prints it (visible with ``pytest -s``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ClassifierConfig
from repro.core.pipeline import ApplicationClassifier
from repro.experiments.fig45 import Fig45Outcome, run_fig45
from repro.experiments.training import TrainingOutcome, build_trained_classifier

OUT_DIR = Path(__file__).parent / "out"


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="quick benchmark gate for CI: smaller fleets, fewer repeats, "
        "noise-tolerant floors",
    )


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def training_outcome() -> TrainingOutcome:
    return build_trained_classifier(seed=0)


@pytest.fixture(scope="session")
def classifier(training_outcome):
    return training_outcome.classifier


@pytest.fixture(scope="session")
def classifier_f32(training_outcome):
    """A float32 tolerance-mode classifier trained on the same profiles.

    Refits from the float64 session's profiling runs instead of
    re-profiling the five training applications, so the two numeric
    modes are compared on identical training data.
    """
    clf = ApplicationClassifier.from_config(ClassifierConfig(compute_dtype="float32"))
    clf.train(
        [
            (run.series, training_outcome.labels[key])
            for key, run in training_outcome.runs.items()
        ]
    )
    return clf


@pytest.fixture(scope="session")
def fig45_outcome() -> Fig45Outcome:
    """The ten-schedule throughput sweep (shared by Fig 4 and Fig 5 benches)."""
    return run_fig45(horizon=2400.0, seed=400)


def emit(out_dir: Path, name: str, text: str) -> None:
    """Print a regenerated artefact and persist it under benchmarks/out/."""
    print(f"\n{text}\n")
    (out_dir / name).write_text(text + "\n")


def knn_queries(pool, rows: int, seed: int = 0):
    """*rows* pool rows at seeded positions: a quarter exact hits, the rest jittered.

    The jitter is 1% of the pool's per-column spread, so the queries
    stay in distribution and the exact hits tie with duplicated
    training snapshots.
    """
    rng = np.random.default_rng(seed)
    queries = pool[rng.integers(0, len(pool), rows)].copy()
    jittered = slice(rows // 4, None)
    noise = rng.normal(size=queries[jittered].shape) * (0.01 * pool.std(axis=0))
    queries[jittered] += noise.astype(pool.dtype)
    return queries


def per_call_seconds(fn, calls: int) -> float:
    """Mean wall time of *calls* back-to-back calls of *fn*."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def best_of_pairs(arms, repeats: int, calls: int = 1) -> list[float]:
    """Best :func:`per_call_seconds` of each arm over *repeats* interleaved rounds.

    Each round times every arm once, in order, so a slow period of the
    host moves all arms together instead of biasing whichever ran
    second; each arm's figure is its minimum over the rounds (the
    noise-robust estimator for CPU-bound code).  Returns one figure per
    arm, in order.
    """
    best = [float("inf")] * len(arms)
    for _ in range(repeats):
        for i, arm in enumerate(arms):
            best[i] = min(best[i], per_call_seconds(arm, calls))
    return best


def interleaved_rounds(arms, rounds: int, calls: int = 1) -> np.ndarray:
    """Per-call seconds of each arm in each of *rounds* interleaved rounds, shape ``(rounds, arms)``.

    Each round times every arm once (:func:`per_call_seconds` over
    *calls* calls), back to back, and every other round runs the arms
    in reverse order, so neither arm always goes first.  Gate a ratio
    on the median over rounds of each round's ratio
    (``np.median(t[:, 1] / t[:, 0])``): a slow spell of a shared host
    moves both sides of a round's ratio together, whereas each arm's
    minimum can come from a different fast spell.
    """
    times = np.empty((rounds, len(arms)))
    for r in range(rounds):
        order = range(len(arms)) if r % 2 == 0 else reversed(range(len(arms)))
        for i in order:
            times[r, i] = per_call_seconds(arms[i], calls)
    return times
