"""Smoke test of the layered benchmark.

    PYTHONPATH=src python -m pytest benchmarks/layers/bench_layers_smoke.py --smoke

With ``--smoke`` (the benchmarks' existing option) every run measures
for ``SMOKE_SECONDS``, so each phase gets about half a second; without
it each run measures for ``run_seconds``.  Checks that every metric of
``BENCHMARK.json`` comes out with its unit, that the traced layer times
account for the untraced time per announcement on the ingest
workloads, and that a wrong result stops the harness.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from bench_layers import HERE, SRC, load_spec, run_child

SMOKE_SECONDS = 1.5
#: Per-row layers whose sum is the traced time per row.
LAYERS = ("intake", "gather", "normalize", "project", "knn.search", "knn.vote", "fanout")
RECONCILE_TOLERANCE = 0.10


@pytest.fixture(scope="module")
def results(smoke):
    spec = load_spec()
    seconds = SMOKE_SECONDS if smoke else spec["run_seconds"]
    return {
        (workload["name"], trace): run_child(workload["name"], 0, seconds, trace)
        for workload in spec["workloads"]
        for trace in (False, True)
    }


def test_every_metric_is_present_finite_and_has_its_unit(results):
    spec = load_spec()
    for (workload, trace), result in results.items():
        assert result is not None, f"{workload} (trace={trace}) exited non-zero"
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = spec["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {metric["name"] for metric in wanted}
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (workload, metric["name"])
            assert math.isfinite(entry["value"]), (workload, metric["name"])


@pytest.mark.parametrize("workload", ["paper_replay", "ood_jitter"])
def test_layer_times_reconcile_with_untraced_time(results, workload):
    metrics = {name: entry["value"] for name, entry in results[(workload, True)]["metrics"].items()}
    layers_ns = sum(metrics[f"{layer}.ns_per_row"] for layer in LAYERS)
    untraced_ns = metrics["untraced.ns_per_row"]
    assert abs(layers_ns / untraced_ns - 1.0) <= RECONCILE_TOLERANCE, (layers_ns, untraced_ns)


def test_a_wrong_result_stops_the_harness():
    script = HERE / "bench_layers.py"
    corrupt = "\n".join(
        [
            "import runpy, sys",
            f"sys.path.insert(0, {str(HERE)!r})",
            "from repro.core.labels import ALL_CLASSES",
            "from repro.core.pipeline import ApplicationClassifier",
            "kernel = ApplicationClassifier.classify_rows",
            "def classify_rows(self, features):",
            "    codes = kernel(self, features)",
            "    if len(codes) > 1:",
            "        codes[0] = (codes[0] + 1) % len(ALL_CLASSES)",
            "    return codes",
            "ApplicationClassifier.classify_rows = classify_rows",
            f"sys.argv = [{str(script)!r}, '--workload', 'ood_jitter', '--seconds', '1']",
            f"runpy.run_path({str(script)!r}, run_name='__main__')",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", corrupt],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode != 0
    assert "MISMATCH" in proc.stderr
    assert proc.stdout.strip() == ""
