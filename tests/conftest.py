"""Shared fixtures.

The trained classifier is expensive (~2 s: five profiled training runs),
so it is built once per session.  Tests that need short profiled runs use
the fast workload helpers below instead of the full paper durations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClassifierConfig
from repro.core.pipeline import ApplicationClassifier
from repro.experiments.training import TrainingOutcome, build_trained_classifier
from repro.sim.execution import RunResult, profiled_run
from repro.vm.resources import ResourceDemand
from repro.workloads.base import Workload, constant_workload


@pytest.fixture(scope="session")
def training_outcome() -> TrainingOutcome:
    """The paper-configured classifier, trained once per test session."""
    return build_trained_classifier(seed=0)


@pytest.fixture(scope="session")
def classifier(training_outcome):
    return training_outcome.classifier


@pytest.fixture(scope="session")
def classifier_f32(training_outcome):
    """A float32 tolerance-mode classifier refit on the session's training runs."""
    clf = ApplicationClassifier.from_config(ClassifierConfig(compute_dtype="float32"))
    clf.train(
        [
            (run.series, training_outcome.labels[key])
            for key, run in training_outcome.runs.items()
        ]
    )
    return clf


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def short_cpu_workload(duration: float = 60.0) -> Workload:
    """A fast CPU-bound job for engine tests."""
    return constant_workload(
        "mini-cpu",
        ResourceDemand(cpu_user=0.9, cpu_system=0.05, mem_mb=20.0),
        duration,
        expected_class="CPU",
    )


def short_io_workload(duration: float = 60.0) -> Workload:
    """A fast I/O-bound job for engine tests."""
    return constant_workload(
        "mini-io",
        ResourceDemand(cpu_user=0.1, cpu_system=0.1, io_bi=500.0, io_bo=500.0, mem_mb=20.0),
        duration,
        expected_class="IO",
    )


def short_net_workload(duration: float = 60.0, server_vm: str = "VM4") -> Workload:
    """A fast network-bound job for engine tests."""
    return constant_workload(
        "mini-net",
        ResourceDemand(cpu_system=0.2, net_out=40_000_000.0, net_in=1_000_000.0, mem_mb=20.0),
        duration,
        expected_class="NET",
        remote_vm=server_vm,
    )


@pytest.fixture(scope="session")
def short_cpu_run() -> RunResult:
    """A profiled 60 s CPU run (shared, read-only)."""
    return profiled_run(short_cpu_workload(), seed=3)


@pytest.fixture(scope="session")
def short_io_run() -> RunResult:
    """A profiled 60 s IO run (shared, read-only)."""
    return profiled_run(short_io_workload(), seed=4)
