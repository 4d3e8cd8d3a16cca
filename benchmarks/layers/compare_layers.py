"""Compare two sets of layered-benchmark results, metric by metric.

    python3 benchmarks/layers/compare_layers.py A1.json A2.json ... -- B1.json B2.json ...

A is the parent (the baseline), B the change; each file is one full
run of ``bench_layers.py``.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` this prints each side's median and
quartiles, the change of the medians, how many pairs B wins (``A[i]``
against ``B[i]``, in the order given), and a verdict:

* ``better``: every B run beats every A run, or B's median beats A's
  by more than A's interquartile spread;
* ``worse``: B's median is worse than A's by more than the metric's
  bound;
* ``unresolved``: either side's interquartile spread, as a share of its
  median, exceeds the bound (unless every B run beats every A run);
* ``same``: none of the above.

Exits with status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench_layers import load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The comparison rule of the module docstring; *better* is ``higher`` or ``lower``."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if min(sign * v for v in b) > max(sign * v for v in a):
        return "better"
    if (a_q3 - a_q1) / abs(a_med) > bound or (b_q3 - b_q1) / abs(b_med) > bound:
        return "unresolved"
    gain = sign * (b_med - a_med) / abs(a_med)
    if gain < -bound:
        return "worse"
    if gain > 0 and sign * (b_med - a_med) > a_q3 - a_q1:
        return "better"
    return "same"


def values(documents: list[dict], workload: str, metric: str) -> list[float]:
    return [doc["workloads"][workload]["end_to_end"][metric]["value"] for doc in documents]


def compare(a_docs: list[dict], b_docs: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Table lines and whether any row regressed."""
    lines = [
        f"{'workload':14s} {'metric':22s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}"
        f" {'change':>8s} {'bound':>6s} {'wins':>6s}  verdict"
    ]
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values(a_docs, workload, metric["name"])
            b = values(b_docs, workload, metric["name"])
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "worse"
            a_cell = f"{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]"
            b_cell = f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
            wins_cell = f"{wins}/{min(len(a), len(b))}"
            lines.append(
                f"{workload:14s} {metric['name']:22s} {a_cell:>32s} {b_cell:>32s}"
                f" {(b_med - a_med) / abs(a_med):>+8.2%} {metric['bound']:>6.0%} {wins_cell:>6s}  {result}"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1 :]
    if not a_paths or not b_paths:
        print("compare_layers: give at least one result file on each side of --", file=sys.stderr)
        return 2
    a_docs = [json.loads(Path(p).read_text()) for p in a_paths]
    b_docs = [json.loads(Path(p).read_text()) for p in b_paths]
    lines, regressed = compare(a_docs, b_docs, load_spec())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
