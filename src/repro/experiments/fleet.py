"""Profile a synthetic fleet of short monitoring windows.

The serving layer's target regime is many concurrent short runs — the
monitoring windows a resource manager classifies every scheduling round
— rather than the paper's few long profiling runs.  This driver
manufactures that fleet: a deterministic mix of CPU-, IO-, and
idle-leaning constant workloads with varied durations, each profiled in
its own VM.  Used by ``benchmarks/bench_serve_throughput.py`` and the
serving-layer tests.
"""

from __future__ import annotations

from ..metrics.series import SnapshotSeries
from ..sim.execution import profiled_run
from ..vm.resources import ResourceDemand
from ..workloads.base import Workload, constant_workload

__all__ = ["fleet_workload", "profile_fleet"]

#: The rotating demand mix: CPU-bound, IO-bound, and mostly idle.
_FLEET_DEMANDS = (
    ResourceDemand(cpu_user=0.9, cpu_system=0.05, mem_mb=20.0),
    ResourceDemand(cpu_user=0.1, cpu_system=0.1, io_bi=500.0, io_bo=500.0, mem_mb=20.0),
    ResourceDemand(cpu_user=0.05, mem_mb=20.0),
)


def fleet_workload(
    index: int, base_duration_s: float = 20.0, duration_step_s: float = 10.0
) -> Workload:
    """The *index*-th fleet member: demand mix and duration rotate deterministically."""
    demand = _FLEET_DEMANDS[index % len(_FLEET_DEMANDS)]
    duration = base_duration_s + (index % 5) * duration_step_s
    return constant_workload(f"fleet-{index}", demand, duration)


def profile_fleet(
    num_runs: int,
    seed: int = 100,
    base_duration_s: float = 20.0,
    duration_step_s: float = 10.0,
) -> list[SnapshotSeries]:
    """Profile *num_runs* fleet members; one snapshot series per run.

    Runs are seeded ``seed + index``, so the fleet is reproducible and
    every run's series differs.

    Raises
    ------
    ValueError
        For a non-positive run count.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be positive")
    return [
        profiled_run(
            fleet_workload(i, base_duration_s, duration_step_s), seed=seed + i
        ).series
        for i in range(num_runs)
    ]
