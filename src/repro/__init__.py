"""repro — reproduction of Zhang & Figueiredo, IPDPS 2006.

"Application Classification through Monitoring and Learning of Resource
Consumption Patterns": a PCA + 3-NN classifier over VM-level performance
metrics, the monitoring and virtual-machine substrates it runs on, and
the class-aware scheduling experiments it enables.

Typical use::

    from repro.experiments import build_trained_classifier
    from repro.sim import profiled_run
    from repro.workloads import postmark

    outcome = build_trained_classifier(seed=0)
    run = profiled_run(postmark(), seed=42)
    result = outcome.classifier.classify_series(run.series)
    print(result.application_class.name, result.composition.as_percentages())

Subpackages
-----------
- :mod:`repro.core` — the classifier (preprocessing, PCA, k-NN, pipeline,
  cost model, incremental PCA, automated feature selection).
- :mod:`repro.metrics` — the 33-metric catalog, snapshots, series.
- :mod:`repro.vm` — hosts, VMs, kernel counters, VMPlant DAG cloning.
- :mod:`repro.workloads` — synthetic models of the paper's benchmarks.
- :mod:`repro.sim` — discrete-time execution engine with contention.
- :mod:`repro.monitoring` — Ganglia-style multicast monitoring.
- :mod:`repro.ingest` — streaming tick-level ingest plane: per-node ring
  buffers, a merged announcement timeline, watermarked batch drains.
- :mod:`repro.db` — the application database and run statistics.
- :mod:`repro.scheduler` — class-aware scheduling and throughput studies.
- :mod:`repro.analysis` — cluster diagrams and report rendering.
- :mod:`repro.experiments` — drivers for each paper table/figure.
- :mod:`repro.obs` — observability: metrics registry, tracing spans,
  Prometheus/JSON exporters (off by default; ``obs.enable()``).
- :mod:`repro.serve` — batched fleet-classification serving layer
  (vectorized ``classify_batch``, micro-batching service, model cache).
- :mod:`repro.errors` — the typed exception hierarchy
  (``except ReproError`` catches every caller-facing error).
"""

__version__ = "5.0.0"

from . import (
    analysis,
    core,
    db,
    errors,
    experiments,
    ingest,
    manager,
    metrics,
    monitoring,
    obs,
    scheduler,
    serve,
    sim,
    vm,
    workloads,
)

__all__ = [
    "analysis",
    "core",
    "db",
    "errors",
    "experiments",
    "ingest",
    "manager",
    "metrics",
    "monitoring",
    "obs",
    "scheduler",
    "serve",
    "sim",
    "vm",
    "workloads",
    "__version__",
]
