"""Classification-cost driver (paper §5.3).

The paper took 8 000 snapshots of a SPECseis96 (medium) VM at 5-second
intervals, then measured: 72 s to filter the target VM's data out of the
multicast pool, and 50 s to train the classifier, run PCA feature
selection, and classify — 15 ms per sample in total, cheap enough for
online training.

This driver reproduces the measurement: it collects a configurable
number of snapshots from a looping SPECseis96 run, then times each stage
(filter, train, PCA, classify) over the same data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.pipeline import ApplicationClassifier
from ..metrics.series import SnapshotSeries
from ..metrics.snapshot import Snapshot
from ..monitoring.filter import PerformanceFilter
from ..monitoring.stack import MonitoringStack
from ..sim.engine import SimulationEngine
from ..sim.execution import classification_testbed
from ..workloads.base import WorkloadInstance
from ..workloads.cpu import specseis96


@dataclass(frozen=True)
class CostBreakdown:
    """Per-stage timings of the classification pipeline."""

    num_samples: int
    filter_s: float
    train_s: float
    classify_s: float

    @property
    def total_s(self) -> float:
        return self.filter_s + self.train_s + self.classify_s

    @property
    def per_sample_ms(self) -> float:
        """The paper's unit classification cost metric."""
        return 1000.0 * self.total_s / self.num_samples


def collect_snapshot_pool(num_samples: int = 8000, seed: int = 500) -> list[Snapshot]:
    """Record *num_samples* target-VM heartbeats of a looping SPECseis96 run.

    Returns the raw multicast pool (which includes the other subnet
    node's snapshots too, as in the paper's setup).
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    cluster = classification_testbed()
    engine = SimulationEngine(cluster, seed=seed)
    stack = MonitoringStack(engine, seed=seed + 1)
    engine.add_instance(WorkloadInstance(specseis96("medium"), vm_name="VM1", loop=True))
    stack.profiler.start(target_node="VM1", now=0.0)
    horizon = num_samples * stack.gmond("VM1").heartbeat
    engine.run(until=horizon + 1.0)
    stack.profiler.stop(now=engine.now)
    return stack.profiler.data_pool()


def measure_cost(
    classifier: ApplicationClassifier,
    pool: list[Snapshot],
    target_node: str = "VM1",
) -> CostBreakdown:
    """Time the filter → preprocess+project → classify stages over *pool*.

    Nothing is refitted: the filtered series goes through
    :meth:`~ApplicationClassifier.classify_series`, and its stage
    timings fill the middle stage (reported as ``train_s``, the slot of
    the paper's 50 s train/PCA measurement: selection, normalization
    and projection) and the classify stage (the k-NN search and vote).
    """
    perf_filter = PerformanceFilter()

    t = time.perf_counter()
    series: SnapshotSeries = perf_filter.extract(pool, target_node)
    filter_s = time.perf_counter() - t

    timings = classifier.classify_series(series).timings
    return CostBreakdown(
        num_samples=len(series),
        filter_s=filter_s,
        train_s=timings.preprocess_s + timings.pca_s,
        classify_s=timings.classify_s,
    )
