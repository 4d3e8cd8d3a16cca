"""The layered benchmark: end-to-end metrics and the per-layer split behind them.

Run every workload (each in a fresh subprocess, untraced and then
traced) and write one JSON result with an environment block::

    python3 benchmarks/layers/bench_layers.py --seed 0

Run one workload, printing one JSON result as the last line of
standard output; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics::

    python3 benchmarks/layers/bench_layers.py --workload paper_replay --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits
in.  BLAS is pinned to one thread before NumPy loads, and a workload
run to one core per thread of load.  Times spent computing are scaled
to the reference host's speed (see ``harness.host_slowdown``).  A
workload whose outputs differ from the reference path prints what
differed and exits with status 1 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Set-up runs per workload run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Environment variables that pin BLAS (and OpenMP) to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Wall-clock limit for one workload subprocess.
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads(SPEC.read_text())


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before NumPy is imported."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def pin_cores(count: int) -> None:
    """Run this process, and the threads it starts later, on its first *count* cores.

    One core per thread of load, so the host-speed probe reads the
    cores the workload runs on and no others.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:count])


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class MismatchError(Exception):
    """The program's outputs differ from the reference path."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process; returns the result object."""
    # Both load NumPy, so they are imported only after pin_blas() ran.
    import workloads
    from harness import clock, host_slowdown, write_spans

    workload = workloads.WORKLOADS[name](seed)
    pin_cores(workload.threads)
    # Set-up is computation, so it is scaled to the reference host speed
    # like the measured phases (see harness.host_slowdown).
    setups = []
    slowdowns = [host_slowdown()]
    for _ in range(SETUP_REPEATS):
        start = clock()
        models, steps = workloads.train_models()
        workload.build(models["f64"])
        elapsed = clock() - start
        slowdowns.append(host_slowdown())
        slowdown = (slowdowns[-2] + slowdowns[-1]) / 2.0
        setups.append((elapsed / slowdown, {step: s / slowdown for step, s in steps.items()}))
    problems = workload.gate(models)
    if problems:
        raise MismatchError(problems)
    # Move the inputs and references out of the collector's way, so its
    # full passes during measurement scan only what the program allocates.
    gc.collect()
    gc.freeze()

    spec = load_spec()
    if trace:
        tracers = {}
        measurement = workload.measure_layers(models, seconds, tracers)
        measurement.metrics.update(
            {
                f"setup.{step}_ms": median(steps[step] for _, steps in setups) * 1e3
                for step in ("profile", "train", "train_f32")
            }
        )
        write_spans(OUT_DIR / f"spans_{name}_seed{seed}.jsonl", tracers)
        wanted = spec["per_layer"]
    else:
        measurement = workload.measure(models, seconds)
        measurement.metrics["setup_s"] = median(total for total, _ in setups)
        measurement.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    slowdowns += measurement.slowdowns
    print(
        f"bench_layers: host slowdown median {median(slowdowns):.3f}, "
        f"range {min(slowdowns):.3f}-{max(slowdowns):.3f} over {len(slowdowns)} readings",
        file=sys.stderr,
    )
    if measurement.failed:
        raise MismatchError([f"{name}: {measurement.failed} of {measurement.attempted} operations failed"])
    return {
        "correct": True,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            m["name"]: {"value": float(measurement.metrics[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }


def print_metrics(workload: str, metrics: dict, stream) -> None:
    for metric, entry in metrics.items():
        print(f"{workload:14s} {metric:26s} {entry['value']:>16.6g} {entry['unit']}", file=stream)


def main_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench_layers: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MismatchError as exc:
        for problem in exc.problems:
            print(f"bench_layers: MISMATCH {problem}", file=sys.stderr)
        return 1
    print_metrics(args.workload, result["metrics"], sys.stderr)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload in a fresh interpreter; returns its result, or None on failure."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, CPU, commit."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        },
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main_all(args: argparse.Namespace) -> int:
    results = {}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        entry = {"correct": True, "attempted": 0, "failed": 0}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_child(workload, args.seed, args.seconds, trace)
            if result is None:
                print(f"bench_layers: {workload} (trace={int(trace)}) failed; no result written", file=sys.stderr)
                return 1
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry[key] = result["metrics"]
            print_metrics(workload, result["metrics"], sys.stdout)
        results[workload] = entry
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": results,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"BENCH_layers_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0, help="input seed (the model is always trained with seed 0)")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="measured seconds per run (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--out", help="result file for a full run (default: out/BENCH_layers_seed<seed>.json)")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_blas()
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
