"""The four workloads of the layered benchmark, with their correctness gates.

Each workload builds its inputs from the seed alone and checks the
program's outputs against a reference path before any timing
(``gate``).  It then measures either the end-to-end metrics with
tracing off (``measure``) or the per-layer split with tracing on
(``measure_layers``).

A run is cut into slices of about ``SLICE_S`` seconds and every phase
(saturated passes per dtype, an open loop) runs for its share of every
slice, so all phases see the same mix of the host's fast and slow
periods and a run measures for the same time on every commit.  Load
comes from this process alone: the main thread generates it, and
``service_load`` adds the service's one worker thread.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from harness import (
    Measurement,
    Tracer,
    clock,
    fast_half,
    fast_percentile_ms,
    fast_rate,
    host_slowdown,
    sleep_until,
    spin_until,
)
from repro.core import ApplicationClassifier, ClassifierConfig, OnlineClassifier, SnapshotClass
from repro.errors import ServiceOverloadedError
from repro.experiments.fleet import profile_fleet
from repro.experiments.training import profile_training_entry
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.monitoring.multicast import MetricAnnouncement
from repro.serve import BatchClassifier, ClassificationService
from repro.sim.execution import profiled_run
from repro.workloads.catalog import test_entries, training_entries

#: A run is cut into slices of about this many seconds.
SLICE_S = 1.0
#: Share of each slice for each saturated phase (one per dtype; a traced
#: run's alternating untraced and traced passes take both) and for the
#: open loop.
SATURATED_SHARE = 0.3
OPEN_LOOP_SHARE = 0.4

#: Ingest: rows per pump in saturated passes; announcement heartbeat.
PUMP_ROWS = 4096
HEARTBEAT_S = 5.0
#: paper_replay: the Table-3 runs as this many per-node traces; the open
#: loop offers this many announcements/s and pumps on this tick.
REPLAY_NODES = 64
REPLAY_RATE = 50_000.0
REPLAY_TICK_S = 0.005
#: ood_jitter: synthetic_fleet shape, arrival jitter and watermark lag;
#: open-loop rate and tick.  A drain walks all 256 rings, a fixed cost
#: of about 1.5 ms, so a 10 ms tick at half paper_replay's rate keeps the
#: consumer about half busy, as paper_replay's settings do.
OOD_NODES = 256
OOD_PER_NODE = 40
OOD_JITTER_S = 2.0
OOD_LATENESS_S = 2.5
OOD_RATE = 25_000.0
OOD_TICK_S = 0.010

#: fleet_batch and service_load: fleet size and open-loop rates.
FLEET_RUNS = 64
ROUND_RATE = 100.0
REQUEST_RATE = 1000.0
SERVICE_CONFIG = {"batch_size": 16, "max_wait_s": 0.005, "max_queue": 256, "workers": 1}
OUTSTANDING = 64
#: Completions per closed-loop throughput sample.
CLOSED_CHUNK = 512
#: An open-loop slice's first send is due this long after it starts.
LEAD_S = 0.005

#: The per-row layers every workload reports, in path order.
LAYERS = ("intake", "gather", "normalize", "project", "knn.search", "knn.vote", "fanout")
#: Span names for ``BatchClassifier.classify_batch_traced``'s stage split.
BATCH_STAGES = ("batch.filter", "batch.normalize", "batch.pca", "batch.knn", "batch.postprocess")


def train_models() -> tuple[dict[str, ApplicationClassifier], dict[str, float]]:
    """Profile the five training runs (seed 0) and train both dtypes.

    Returns the classifiers by label (``f64``, ``f32``) and the seconds
    each step took.
    """
    t0 = clock()
    data = [
        (profile_training_entry(entry, seed=i).series, SnapshotClass.from_label(entry.training_class))
        for i, entry in enumerate(training_entries())
    ]
    t1 = clock()
    f64 = ApplicationClassifier().train(data)
    t2 = clock()
    f32 = ApplicationClassifier.from_config(ClassifierConfig(compute_dtype="float32")).train(data)
    t3 = clock()
    return {"f64": f64, "f32": f32}, {"profile": t1 - t0, "train": t2 - t1, "train_f32": t3 - t2}


class LoopSlice(NamedTuple):
    """Timings of one open-loop slice, in seconds.

    ``latency`` runs from each item's due time to its result and ``lag``
    is how late the generator sent it.  ``busy`` is the part of each
    latency spent in the computation that produced the item's result:
    the push and pump after the generator woke, the round, or the
    service's batch call.  Traced slices also carry ``wait``, from each
    item's due time to the start of the call that classified it, and
    each such call's ``compute`` time and ``rows``.
    """

    latency: np.ndarray
    lag: np.ndarray
    busy: np.ndarray
    wait: np.ndarray | None = None
    compute: np.ndarray | None = None
    rows: np.ndarray | None = None


class OpenLoopSamples:
    """An open loop's slices, and its operation accounting.

    Each percentile is that of a typical slice from the faster half, for
    the reason the rates use the faster half of their samples (see
    ``harness.fast_half`` and ``harness.fast_percentile_ms``).
    """

    def __init__(self) -> None:
        self.slices: list[LoopSlice] = []
        self.attempted = 0
        self.failed = 0

    def _percentile_ms(self, field: str, q: float) -> float:
        return fast_percentile_ms([getattr(s, field) for s in self.slices], q)

    def latency_metrics(self) -> dict[str, float]:
        return {
            "latency_p50_ms": self._percentile_ms("latency", 50),
            "latency_p90_ms": self._percentile_ms("latency", 90),
        }

    def wait_metrics(self) -> dict[str, float]:
        return {
            "wait.ms_p50": self._percentile_ms("wait", 50),
            "wait.ms_p99": self._percentile_ms("wait", 99),
            "compute.ms_p50": self._percentile_ms("compute", 50),
            "kernel.rows_per_call": float(np.mean(np.concatenate([s.rows for s in self.slices]))),
            "gen.lag_ms_max": max(float(np.max(s.lag)) for s in self.slices) * 1e3,
        }


class PassPhase:
    """Saturated passes or closed-loop samples: ``seconds`` holds one timing each.

    ``run(seconds)`` takes timed passes (``step()``) until *seconds*
    have gone by.  ``rescale(slowdown)`` divides the timings recorded
    since its last call by the host slowdown read around them: a pass
    is computation from start to end.
    """

    seconds: list[float]
    #: Timings already rescaled.
    _rescaled = 0

    def step(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        end = clock() + seconds
        while True:
            self.step()
            if clock() >= end:
                return

    def rescale(self, slowdown: float) -> None:
        new = slice(self._rescaled, None)
        self.seconds[new] = [s / slowdown for s in self.seconds[new]]
        self._rescaled = len(self.seconds)


class AlternatingPasses:
    """An untraced and a traced pass in turn, so both see the same host speed.

    The traced run compares the two (``trace.overhead``) and reconciles
    the traced layers with the untraced time per row; passes apart in
    time would also compare the host's fast and slow periods.
    """

    def __init__(self, untraced: PassPhase, traced: PassPhase) -> None:
        self.untraced = untraced
        self.traced = traced

    @property
    def attempted(self) -> int:
        return self.untraced.attempted + self.traced.attempted

    @property
    def failed(self) -> int:
        return self.untraced.failed + self.traced.failed

    def run(self, seconds: float) -> None:
        end = clock() + seconds
        while True:
            self.untraced.step()
            self.traced.step()
            if clock() >= end:
                return

    def rescale(self, slowdown: float) -> None:
        self.untraced.rescale(slowdown)
        self.traced.rescale(slowdown)


class LoopPhase:
    """An open loop: ``samples`` gets one ``LoopSlice`` per ``run``.

    ``rescale(slowdown)`` divides the ``busy`` part of the last slice's
    latencies, and a traced slice's ``compute`` times, by the host
    slowdown read around it.  The rest is waiting (for a tick, the
    watermark, a batch window, the schedule), which does not stretch
    with the host, and stays as measured.
    """

    samples: OpenLoopSamples

    def rescale(self, slowdown: float) -> None:
        last = self.samples.slices[-1]
        self.samples.slices[-1] = last._replace(
            latency=last.latency - last.busy * (1.0 - 1.0 / slowdown),
            compute=None if last.compute is None else last.compute / slowdown,
        )


def interleave(
    phases: list[tuple[PassPhase | LoopPhase | AlternatingPasses, float]], seconds: float
) -> Measurement:
    """Run every phase for its share of every slice; returns the summed accounting.

    The host slowdown is read between phases, and each phase's timings
    from a slice are rescaled by the mean of the readings before and
    after it (see ``harness.host_slowdown``).
    """
    slices = max(1, round(seconds / SLICE_S))
    result = Measurement({}, 0, 0, [host_slowdown()])
    for _ in range(slices):
        for phase, share in phases:
            phase.run(share * seconds / slices)
            result.chunk_ends.append(clock())
            result.slowdowns.append(host_slowdown())
            phase.rescale((result.slowdowns[-2] + result.slowdowns[-1]) / 2.0)
    result.attempted = sum(phase.attempted for phase, _ in phases)
    result.failed = sum(phase.failed for phase, _ in phases)
    return result


def layer_metrics(seconds: dict[str, float], rows: int) -> dict[str, float]:
    """ns per row for each layer, plus the kNN share of their sum."""
    metrics = {f"{layer}.ns_per_row": seconds[layer] / rows * 1e9 for layer in LAYERS}
    metrics["knn.share"] = (seconds["knn.search"] + seconds["knn.vote"]) / sum(seconds.values())
    return metrics


def per_call_us(spans: list, result: Measurement) -> float:
    """Mean microseconds per call over *spans*, each scaled by its chunk's host slowdown."""
    return sum(span.seconds / result.slowdown_at(span.start) for span in spans) / len(spans) * 1e6


def traced_slice(tracer: Tracer | None, patch, run) -> None:
    """Call *run*, with ``patch(tracer)`` applied around it when tracing."""
    if tracer is None:
        run()
        return
    patch(tracer)
    try:
        run()
    finally:
        tracer.restore()


# ----------------------------------------------------------------------
# paper_replay and ood_jitter: IngestPlane.push → OnlineClassifier.pump
# ----------------------------------------------------------------------
def state_key(online: OnlineClassifier) -> dict:
    """Every node's rolling state, in a form ``==`` compares exactly."""
    key = {}
    for node in online.nodes():
        state = online.state(node)
        key[node] = (
            tuple(state.class_counts.tolist()),
            state.current_class,
            state.streak,
            state.snapshots_seen,
            state.last_timestamp,
        )
    return key


def drain_all(online: OnlineClassifier) -> list:
    """Pump until the plane is empty, then flush what the watermark holds back."""
    drains = []
    while True:
        result = online.pump(PUMP_ROWS)
        if len(result) == 0:
            break
        drains.append(result)
    drains.append(online.pump(flush=True))
    return drains


class IngestWorkload:
    """An announcement stream pushed through ``IngestPlane`` and pumped by ``OnlineClassifier``.

    ``node_idx``, ``timestamps`` and ``values`` are parallel arrays in
    arrival order; ``nodes[node_idx[i]]`` names the announcing node.
    Phases replay the stream: replay ``r`` shifts every timestamp by
    ``r * period``, so each node's timestamps keep increasing and
    (node, timestamp) identifies every announcement sent.
    """

    #: Threads that carry the load (and so cores the run is pinned to).
    threads = 1

    def __init__(
        self,
        name: str,
        nodes: list[str],
        node_idx: np.ndarray,
        timestamps: np.ndarray,
        values: np.ndarray,
        lateness_s: float,
        rate: float,
        tick_s: float,
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.node_idx = node_idx
        self.timestamps = timestamps
        self.lateness_s = lateness_s
        self.rate = rate
        self.tick_s = tick_s
        self.items = [
            (nodes[k], ts, row) for k, ts, row in zip(node_idx.tolist(), timestamps.tolist(), values)
        ]
        self.period = float(timestamps.max() - timestamps.min()) + HEARTBEAT_S
        #: Per compute dtype: each announcement's class code from the gate.
        self.reference: dict[str, np.ndarray] = {}

    def consumer(self, clf: ApplicationClassifier) -> tuple[IngestPlane, OnlineClassifier]:
        plane = IngestPlane(lateness_s=self.lateness_s)
        return plane, OnlineClassifier(clf, plane)

    def build(self, clf: ApplicationClassifier) -> None:
        self.consumer(clf)

    def node_index(self, plane: IngestPlane) -> np.ndarray:
        """Map the plane's node ids to this stream's node indices."""
        index = {node: k for k, node in enumerate(self.nodes)}
        return np.array([index[node] for node in plane.node_names], dtype=np.intp)

    def gate(self, models: dict[str, ApplicationClassifier]) -> list[str]:
        """Pump path ≡ per-announcement push path, per node and per dtype."""
        problems = []
        announcements = [MetricAnnouncement(node, ts, row) for node, ts, row in self.items]
        for label, clf in models.items():
            channel = MulticastChannel()
            pushed = OnlineClassifier(clf, channel)
            plane = IngestPlane(channel, lateness_s=self.lateness_s)
            pulled = OnlineClassifier(clf, plane)
            for announcement in announcements:
                channel.announce(announcement)
            drains = drain_all(pulled)
            codes = np.array([int(pushed.classify(a)) for a in announcements], dtype=np.int64)
            node_map = self.node_index(plane)
            drained_nodes = np.concatenate([node_map[d.node_ids] for d in drains])
            drained_codes = np.concatenate([d.codes for d in drains])
            for k, node in enumerate(self.nodes):
                if not np.array_equal(drained_codes[drained_nodes == k], codes[self.node_idx == k]):
                    problems.append(f"{self.name} {label}: pump codes of {node} differ from classify()")
            if state_key(pulled) != state_key(pushed):
                problems.append(f"{self.name} {label}: pumped node state differs from the push path")
            self.reference[clf.compute_dtype] = codes
        return problems

    def match(
        self, plane: IngestPlane, drains: list, sent: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Align classified rows with the announcements *sent* (indices into the replayed stream).

        *codes* are the stream's reference codes.  Returns the orders
        that align the sent and the classified rows, and how many rows
        are missing or misclassified.
        """
        n = len(self.items)
        source = sent % n
        sent_node = self.node_idx[source]
        sent_ts = self.timestamps[source] + (sent // n) * self.period
        node_map = self.node_index(plane)
        got_node = np.concatenate([node_map[d.node_ids] for d in drains])
        got_ts = np.concatenate([d.timestamps for d in drains])
        got_code = np.concatenate([d.codes for d in drains])
        want = np.lexsort((sent_ts, sent_node))
        got = np.lexsort((got_ts, got_node))
        if got.shape != want.shape or not (
            np.array_equal(sent_node[want], got_node[got]) and np.array_equal(sent_ts[want], got_ts[got])
        ):
            return want, got, sent.shape[0]
        return want, got, int(np.count_nonzero(got_code[got] != codes[source[want]]))

    @staticmethod
    def trace(tracer: Tracer, clf: ApplicationClassifier, plane: IngestPlane, online: OnlineClassifier) -> None:
        """Wrap every layer call on the pump path."""
        tracer.wrap(plane, "drain", "ingest.drain")
        tracer.wrap(online, "pump", "online.pump")
        tracer.wrap(clf, "classify_rows", "pipeline.classify_rows")
        tracer.wrap(clf.preprocessor, "transform_features", "preprocessing.transform_features")
        tracer.wrap(clf.knn, "kneighbors_rows", "knn.kneighbors_rows")
        tracer.wrap(clf.knn, "vote", "knn.vote")

    def measure(self, models: dict[str, ApplicationClassifier], seconds: float) -> Measurement:
        f64 = IngestPasses(self, models["f64"])
        f32 = IngestPasses(self, models["f32"])
        loop = IngestOpenLoop(self, models["f64"])
        result = interleave([(f64, SATURATED_SHARE), (f32, SATURATED_SHARE), (loop, OPEN_LOOP_SHARE)], seconds)
        result.metrics = {
            "throughput_per_s": f64.rate(),
            "throughput_f32_per_s": f32.rate(),
            **loop.samples.latency_metrics(),
        }
        return result

    def measure_layers(
        self, models: dict[str, ApplicationClassifier], seconds: float, tracers: dict[str, Tracer]
    ) -> Measurement:
        clf = models["f64"]
        saturated = tracers["saturated"] = Tracer()
        open_loop = tracers["open_loop"] = Tracer()
        base = IngestPasses(self, clf)
        traced = IngestPasses(self, clf, saturated)
        loop = IngestOpenLoop(self, clf, open_loop)
        result = interleave([(AlternatingPasses(base, traced), 2 * SATURATED_SHARE), (loop, OPEN_LOOP_SHARE)], seconds)

        passes = saturated.named("ingest.pass")
        roots = [passes[i] for i in fast_half(traced.seconds)]
        t = saturated.totals(result.slowdown_at, roots)
        kernel = t["pipeline.classify_rows"]
        normalize = t["preprocessing.transform_features"]
        search = t["knn.kneighbors_rows"]
        vote = t["knn.vote"]
        seconds_by_layer = {
            "intake": t["ingest.push"],
            "gather": t["ingest.drain"],
            "normalize": normalize,
            "project": kernel - normalize - search - vote,
            "knn.search": search,
            "knn.vote": vote,
            "fanout": t["online.pump"] - t["ingest.drain"] - kernel,
        }
        drains = open_loop.named("ingest.drain")
        result.metrics = {
            **layer_metrics(seconds_by_layer, len(self.items) * len(roots)),
            "untraced.ns_per_row": 1e9 / base.rate(),
            "trace.overhead": base.rate() / traced.rate() - 1.0,
            "gather.us_per_call": per_call_us(drains, result),
            **loop.samples.wait_metrics(),
        }
        return result


class IngestPasses(PassPhase):
    """Saturated passes on one long-lived plane: push one replay of the stream, then pump it dry."""

    def __init__(self, workload: IngestWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.plane, self.online = workload.consumer(clf)
        self.codes = workload.reference[clf.compute_dtype]
        self.replays = 0
        self.seconds: list[float] = []
        self.failed = 0
        self._pass(traced=False)  # warm-up: the first drain sizes the plane's buffers

    @property
    def attempted(self) -> int:
        return len(self.seconds) * len(self.workload.items)

    def rate(self) -> float:
        return fast_rate(len(self.workload.items), self.seconds)

    def _pass(self, traced: bool) -> tuple[float, int]:
        items = self.workload.items
        n = len(items)
        offset = self.replays * self.workload.period
        push = self.plane.push
        start = clock()
        with self.tracer.span("ingest.pass", rows=n) if traced else nullcontext():
            with self.tracer.span("ingest.push", rows=n) if traced else nullcontext():
                for node, ts, row in items:
                    push(node, ts + offset, row)
            drains = drain_all(self.online)
        elapsed = clock() - start
        sent = np.arange(self.replays * n, (self.replays + 1) * n)
        self.replays += 1
        return elapsed, self.workload.match(self.plane, drains, sent, self.codes)[2]

    def step(self) -> None:
        def one() -> None:
            elapsed, failed = self._pass(traced=self.tracer is not None)
            self.seconds.append(elapsed)
            self.failed += failed

        traced_slice(self.tracer, lambda t: self.workload.trace(t, self.clf, self.plane, self.online), one)


class IngestOpenLoop(LoopPhase):
    """Offer the workload's rate of announcements; the consumer pumps once per tick."""

    def __init__(self, workload: IngestWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.plane, self.online = workload.consumer(clf)
        self.codes = workload.reference[clf.compute_dtype]
        self.sent = 0
        self.samples = OpenLoopSamples()

    @property
    def attempted(self) -> int:
        return self.samples.attempted

    @property
    def failed(self) -> int:
        return self.samples.failed

    def run(self, seconds: float) -> None:
        traced_slice(
            self.tracer,
            lambda t: self.workload.trace(t, self.clf, self.plane, self.online),
            lambda: self._segment(seconds),
        )

    def _segment(self, seconds: float) -> None:
        workload = self.workload
        push = self.plane.push
        items, n, period, rate, tick_s = (
            workload.items, len(workload.items), workload.period, workload.rate, workload.tick_s
        )
        first = self.sent
        total = first + int(rate * seconds)
        pumps = []
        lags = []
        t0 = clock() + LEAD_S
        sent = first
        tick = 0
        while sent < total:
            tick_at = t0 + tick * tick_s
            spin_until(tick_at)
            now = clock()
            lags.append(now - tick_at)
            due_now = min(total, first + int((now - t0) * rate) + 1)
            while sent < due_now:
                node, ts, row = items[sent % n]
                push(node, ts + (sent // n) * period, row)
                sent += 1
            begin = clock()
            result = self.online.pump()
            pumps.append((now, begin, clock(), result))
            tick += 1
        # The segment ends here, so release what the watermark holds back.
        begin = clock()
        result = self.online.pump(flush=True)
        pumps.append((begin, begin, clock(), result))
        self.sent = total

        woke, began, ended, drains = zip(*pumps)
        indices = np.arange(first, total)
        want, got, failed = workload.match(self.plane, drains, indices, self.codes)
        due = t0 + (indices - first) / rate
        rows = np.array([len(r) for r in drains])
        wokes, begins, ends = (np.repeat(times, rows)[got] for times in (woke, began, ended))
        nonempty = rows > 0
        self.samples.slices.append(
            LoopSlice(
                latency=ends - due[want],
                lag=np.array(lags),
                busy=ends - wokes,
                wait=begins - due[want],
                compute=(np.array(ended) - np.array(began))[nonempty],
                rows=rows[nonempty],
            )
        )
        self.samples.attempted += total - first
        self.samples.failed += failed


def paper_replay(seed: int) -> IngestWorkload:
    """The 14 Table-3 test runs as 64 contiguous per-node traces, in timestamp order."""
    runs = [
        profiled_run(entry.build(), vm_mem_mb=entry.vm_mem_mb, seed=100 + seed + i).series
        for i, entry in enumerate(test_entries())
    ]
    values = np.vstack([series.matrix.T for series in runs])
    chunks = np.array_split(np.arange(values.shape[0]), REPLAY_NODES)
    phases = np.random.default_rng(seed).uniform(0.0, HEARTBEAT_S, size=REPLAY_NODES)
    node_idx = np.concatenate([np.full(len(c), k) for k, c in enumerate(chunks)])
    timestamps = np.concatenate([phases[k] + HEARTBEAT_S * np.arange(len(c)) for k, c in enumerate(chunks)])
    order = np.lexsort((node_idx, timestamps))
    nodes = [f"node{k:03d}" for k in range(REPLAY_NODES)]
    return IngestWorkload(
        "paper_replay", nodes, node_idx[order], timestamps[order], values[order], 0.0, REPLAY_RATE, REPLAY_TICK_S
    )


def ood_jitter(seed: int) -> IngestWorkload:
    """Uniform synthetic traffic, far from the training pool, arriving out of order."""
    announcements = synthetic_fleet(OOD_NODES, OOD_PER_NODE, seed=seed, arrival_jitter_s=OOD_JITTER_S)
    nodes = sorted({a.node for a in announcements})
    index = {node: k for k, node in enumerate(nodes)}
    return IngestWorkload(
        "ood_jitter",
        nodes,
        np.array([index[a.node] for a in announcements]),
        np.array([a.timestamp for a in announcements]),
        np.stack([a.values for a in announcements]),
        OOD_LATENESS_S,
        OOD_RATE,
        OOD_TICK_S,
    )


# ----------------------------------------------------------------------
# fleet_batch and service_load: BatchClassifier.classify_batch
# ----------------------------------------------------------------------
def trace_batch(tracer: Tracer, batch: BatchClassifier, clf: ApplicationClassifier, calls: list | None = None) -> None:
    """Route ``batch.classify_batch`` through ``classify_batch_traced``, recording its stage split.

    Also wraps the kNN vote.  Each call appends ``(start, end, series,
    rows)`` to *calls*.  The stage spans are laid end to end from the
    call's start, since the kernel reports only their durations.
    """
    traced = batch.classify_batch_traced

    def classify_batch(series_list):
        rows = sum(len(series) for series in series_list)
        with tracer.span("serve.classify_batch", rows=rows) as call:
            start = clock()
            results, stage_seconds = traced(series_list)
            end = clock()
        cursor = start
        for name, stage in zip(BATCH_STAGES, stage_seconds):
            tracer.record(name, cursor, cursor + stage, parent=call, rows=rows)
            cursor += stage
        if calls is not None:
            calls.append((start, end, len(series_list), rows))
        return results

    tracer.patch(batch, "classify_batch", classify_batch)
    tracer.wrap(clf.knn, "vote", "knn.vote")


def time_calls(batch: BatchClassifier, calls: list) -> None:
    """Without tracing, make ``batch.classify_batch`` append ``(start, end, series, rows)`` to *calls*.

    It adds two clock reads to a call of about a millisecond.  Set on a
    service's own batch classifier, which lives for one slice, so it is
    never taken off.
    """
    classify = batch.classify_batch

    def classify_batch(series_list):
        start = clock()
        results = classify(series_list)
        end = clock()
        calls.append((start, end, len(series_list), sum(len(series) for series in series_list)))
        return results

    batch.classify_batch = classify_batch


def batch_layer_seconds(totals: dict[str, float], intake: float = 0.0) -> dict[str, float]:
    """Per-layer seconds on the batch kernel's path.

    The call's time outside the five stages (validation and dispatch)
    counts as intake, on top of any *intake* the caller measured.
    """
    stages = sum(totals[name] for name in BATCH_STAGES)
    return {
        "intake": intake + totals["serve.classify_batch"] - stages,
        "gather": totals["batch.filter"],
        "normalize": totals["batch.normalize"],
        "project": totals["batch.pca"],
        "knn.search": totals["batch.knn"] - totals["knn.vote"],
        "knn.vote": totals["knn.vote"],
        "fanout": totals["batch.postprocess"],
    }


class FleetWorkload:
    """A fleet of 64 short monitoring windows through ``BatchClassifier.classify_batch``."""

    name = "fleet_batch"
    #: Threads that carry the load (and so cores the run is pinned to).
    threads = 1

    def __init__(self, seed: int) -> None:
        self.fleet = profile_fleet(FLEET_RUNS, seed=100 + seed)
        self.snapshots = sum(len(series) for series in self.fleet)
        #: Per compute dtype: each run's class vector from the gate.
        self.reference: dict[str, list[np.ndarray]] = {}

    def build(self, clf: ApplicationClassifier) -> None:
        BatchClassifier(clf)

    def gate(self, models: dict[str, ApplicationClassifier]) -> list[str]:
        """classify_batch ≡ classify_series per dtype; f32 labels agree with f64 on ≥ 99%."""
        problems = []
        for label, clf in models.items():
            results = BatchClassifier(clf).classify_batch(self.fleet)
            for i, (series, got) in enumerate(zip(self.fleet, results)):
                want = clf.classify_series(series)
                if not (
                    np.array_equal(got.class_vector, want.class_vector)
                    and np.array_equal(got.scores, want.scores)
                ):
                    problems.append(f"{self.name} {label}: classify_batch differs from classify_series on run {i}")
            self.reference[clf.compute_dtype] = [r.class_vector for r in results]
        agreement = np.mean(
            np.concatenate(self.reference["float32"]) == np.concatenate(self.reference["float64"])
        )
        if agreement < 0.99:
            problems.append(f"{self.name}: f32 labels agree with f64 on only {agreement:.2%} of snapshots")
        return problems

    def failures(self, results, clf: ApplicationClassifier) -> int:
        """Snapshots of the fleet whose classes differ from the reference."""
        reference = self.reference[clf.compute_dtype]
        if len(results) != len(reference):
            return self.snapshots
        return sum(
            len(want) for r, want in zip(results, reference) if not np.array_equal(r.class_vector, want)
        )

    def measure(self, models: dict[str, ApplicationClassifier], seconds: float) -> Measurement:
        f64 = FleetPasses(self, models["f64"])
        f32 = FleetPasses(self, models["f32"])
        rounds = FleetRounds(self, models["f64"])
        result = interleave([(f64, SATURATED_SHARE), (f32, SATURATED_SHARE), (rounds, OPEN_LOOP_SHARE)], seconds)
        result.metrics = {
            "throughput_per_s": f64.rate(),
            "throughput_f32_per_s": f32.rate(),
            **rounds.samples.latency_metrics(),
        }
        return result

    def measure_layers(
        self, models: dict[str, ApplicationClassifier], seconds: float, tracers: dict[str, Tracer]
    ) -> Measurement:
        clf = models["f64"]
        saturated = tracers["saturated"] = Tracer()
        open_loop = tracers["open_loop"] = Tracer()
        base = FleetPasses(self, clf)
        traced = FleetPasses(self, clf, saturated)
        rounds = FleetRounds(self, clf, open_loop)
        result = interleave([(AlternatingPasses(base, traced), 2 * SATURATED_SHARE), (rounds, OPEN_LOOP_SHARE)], seconds)

        calls = saturated.named("serve.classify_batch")
        roots = [calls[i] for i in fast_half(traced.seconds)]
        totals = saturated.totals(result.slowdown_at, roots)
        filters = open_loop.named("batch.filter")
        result.metrics = {
            **layer_metrics(batch_layer_seconds(totals), self.snapshots * len(roots)),
            "untraced.ns_per_row": 1e9 / base.rate(),
            "trace.overhead": base.rate() / traced.rate() - 1.0,
            "gather.us_per_call": per_call_us(filters, result),
            **rounds.samples.wait_metrics(),
        }
        return result


class FleetPasses(PassPhase):
    """Back-to-back ``classify_batch`` calls over the whole fleet."""

    def __init__(self, workload: FleetWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.batch = BatchClassifier(clf)
        self.batch.classify_batch(workload.fleet)  # warm-up
        self.seconds: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds) * self.workload.snapshots

    def rate(self) -> float:
        return fast_rate(self.workload.snapshots, self.seconds)

    def step(self) -> None:
        def one() -> None:
            start = clock()
            results = self.batch.classify_batch(self.workload.fleet)
            self.seconds.append(clock() - start)
            self.failed += self.workload.failures(results, self.clf)

        traced_slice(self.tracer, lambda t: trace_batch(t, self.batch, self.clf), one)


class FleetRounds(LoopPhase):
    """One scheduling round every 1/``ROUND_RATE`` s, timed from its due time."""

    def __init__(self, workload: FleetWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.batch = BatchClassifier(clf)
        self.samples = OpenLoopSamples()

    @property
    def attempted(self) -> int:
        return self.samples.attempted

    @property
    def failed(self) -> int:
        return self.samples.failed

    def run(self, seconds: float) -> None:
        traced_slice(self.tracer, lambda t: trace_batch(t, self.batch, self.clf), lambda: self._segment(seconds))

    def _segment(self, seconds: float) -> None:
        workload = self.workload
        count = max(1, int(ROUND_RATE * seconds))
        t0 = clock() + LEAD_S
        due = t0 + np.arange(count) / ROUND_RATE
        begins = np.empty(count)
        ends = np.empty(count)
        for i in range(count):
            spin_until(due[i])
            begins[i] = clock()
            results = self.batch.classify_batch(workload.fleet)
            ends[i] = clock()
            self.samples.failed += workload.failures(results, self.clf)
        self.samples.slices.append(
            LoopSlice(
                latency=ends - due,
                lag=begins - due,
                busy=ends - begins,
                wait=begins - due,
                compute=ends - begins,
                rows=np.full(count, workload.snapshots),
            )
        )
        self.samples.attempted += count * workload.snapshots


class ServiceWorkload(FleetWorkload):
    """The same fleet's series as single requests to a micro-batching ``ClassificationService``."""

    name = "service_load"
    #: The generator and the service's worker.
    threads = 2

    def build(self, clf: ApplicationClassifier) -> None:
        ClassificationService(clf, **SERVICE_CONFIG).shutdown()

    def gate(self, models: dict[str, ApplicationClassifier]) -> list[str]:
        """The fleet gate, plus one service round per dtype against the batch reference."""
        problems = super().gate(models)
        for label, clf in models.items():
            reference = self.reference[clf.compute_dtype]
            with ClassificationService(clf, **SERVICE_CONFIG) as service:
                futures = [service.submit(series) for series in self.fleet]
                for i, future in enumerate(futures):
                    if not np.array_equal(future.result().class_vector, reference[i]):
                        problems.append(f"{self.name} {label}: service result differs from the batch on run {i}")
        return problems

    def measure(self, models: dict[str, ApplicationClassifier], seconds: float) -> Measurement:
        f64 = ServiceClosedLoop(self, models["f64"])
        f32 = ServiceClosedLoop(self, models["f32"])
        loop = ServiceOpenLoop(self, models["f64"])
        result = interleave([(f64, SATURATED_SHARE), (f32, SATURATED_SHARE), (loop, OPEN_LOOP_SHARE)], seconds)
        result.metrics = {
            "throughput_per_s": f64.rate(),
            "throughput_f32_per_s": f32.rate(),
            **loop.samples.latency_metrics(),
        }
        return result

    def measure_layers(
        self, models: dict[str, ApplicationClassifier], seconds: float, tracers: dict[str, Tracer]
    ) -> Measurement:
        clf = models["f64"]
        saturated = tracers["saturated"] = Tracer()
        open_loop = tracers["open_loop"] = Tracer()
        base = ServiceClosedLoop(self, clf)
        traced = ServiceClosedLoop(self, clf, saturated)
        loop = ServiceOpenLoop(self, clf, open_loop)
        result = interleave([(base, SATURATED_SHARE), (traced, SATURATED_SHARE), (loop, OPEN_LOOP_SHARE)], seconds)

        totals = saturated.totals(result.slowdown_at)
        rows = sum(span.rows for span in saturated.named("serve.classify_batch"))
        filters = open_loop.named("batch.filter")
        result.metrics = {
            **layer_metrics(batch_layer_seconds(totals, intake=totals["serve.submit"]), rows),
            # base.rate() counts requests; a request carries a fleet run's rows on average.
            "untraced.ns_per_row": 1e9 / (base.rate() * self.snapshots / len(self.fleet)),
            "trace.overhead": base.rate() / traced.rate() - 1.0,
            "gather.us_per_call": per_call_us(filters, result),
            **loop.samples.wait_metrics(),
        }
        return result


class ServiceClosedLoop(PassPhase):
    """``OUTSTANDING`` requests kept in flight against a fresh service each slice."""

    def __init__(self, workload: ServiceWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.reference = workload.reference[clf.compute_dtype]
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0

    def rate(self) -> float:
        """Requests per second over the faster half of ``CLOSED_CHUNK``-completion samples."""
        return fast_rate(CLOSED_CHUNK, self.seconds)

    def run(self, seconds: float) -> None:
        service = ClassificationService(self.clf, **SERVICE_CONFIG)
        try:
            traced_slice(
                self.tracer,
                lambda t: trace_batch(t, service.batch, self.clf),
                lambda: self._segment(service, seconds),
            )
        finally:
            service.shutdown()

    def _segment(self, service: ClassificationService, seconds: float) -> None:
        fleet = self.workload.fleet
        tracer = self.tracer
        pending: deque = deque()
        done = []

        def submit(i: int) -> None:
            series = fleet[i % len(fleet)]
            self.attempted += 1
            try:
                with tracer.span("serve.submit", rows=len(series)) if tracer is not None else nullcontext():
                    future = service.submit(series)
            except ServiceOverloadedError:
                self.failed += 1
                return
            pending.append((i, future))

        def complete() -> None:
            i, future = pending.popleft()
            result = future.result()
            done.append(clock())
            if not np.array_equal(result.class_vector, self.reference[i % len(fleet)]):
                self.failed += 1

        for i in range(OUTSTANDING):
            submit(i)
        sent = OUTSTANDING
        end = clock() + seconds
        while clock() < end or len(done) <= CLOSED_CHUNK:
            complete()
            submit(sent)
            sent += 1
        full = len(done)
        while pending:
            complete()
        self.seconds.extend(
            done[i + CLOSED_CHUNK] - done[i] for i in range(0, full - CLOSED_CHUNK, CLOSED_CHUNK)
        )


class ServiceOpenLoop(LoopPhase):
    """``REQUEST_RATE`` requests/s against a fresh service each slice, timed from their due times."""

    def __init__(self, workload: ServiceWorkload, clf: ApplicationClassifier, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.clf = clf
        self.tracer = tracer
        self.reference = workload.reference[clf.compute_dtype]
        self.samples = OpenLoopSamples()

    @property
    def attempted(self) -> int:
        return self.samples.attempted

    @property
    def failed(self) -> int:
        return self.samples.failed

    def run(self, seconds: float) -> None:
        service = ClassificationService(self.clf, **SERVICE_CONFIG)
        calls: list = []
        if self.tracer is None:
            time_calls(service.batch, calls)
        try:
            traced_slice(
                self.tracer,
                lambda t: trace_batch(t, service.batch, self.clf, calls),
                lambda: self._segment(service, seconds, calls),
            )
        finally:
            service.shutdown()

    def _segment(self, service: ClassificationService, seconds: float, calls: list) -> None:
        fleet = self.workload.fleet
        count = max(1, int(REQUEST_RATE * seconds))
        t0 = clock() + LEAD_S
        due = t0 + np.arange(count) / REQUEST_RATE
        sent = np.empty(count)
        done = np.full(count, np.nan)
        futures = []
        samples = self.samples

        def stamp(i: int):
            def on_done(_future) -> None:
                done[i] = clock()

            return on_done

        for i in range(count):
            sleep_until(due[i])
            sent[i] = clock()
            try:
                future = service.submit(fleet[i % len(fleet)])
            except ServiceOverloadedError:
                samples.failed += 1
                continue
            future.add_done_callback(stamp(i))
            futures.append((i, future))
        # Joining the worker also waits for the done-callbacks to finish.
        service.shutdown()
        for i, future in futures:
            if not np.array_equal(future.result().class_vector, self.reference[i % len(fleet)]):
                samples.failed += 1
        accepted = np.array([i for i, _ in futures], dtype=np.intp)
        samples.attempted += count
        # One worker serves the queue in FIFO order, so the k-th call
        # holds the next n_k accepted requests.
        per_call = [n for _, _, n, _ in calls]
        starts = np.repeat([start for start, _, _, _ in calls], per_call)
        ends = np.repeat([end for _, end, _, _ in calls], per_call)
        if starts.shape != accepted.shape:
            raise RuntimeError("service batches do not cover the accepted requests")
        timings = LoopSlice(
            latency=done[accepted] - due[accepted], lag=sent[accepted] - due[accepted], busy=ends - starts
        )
        if self.tracer is not None:
            timings = timings._replace(
                wait=starts - due[accepted],
                compute=np.array([end - start for start, end, _, _ in calls]),
                rows=np.array([rows for _, _, _, rows in calls]),
            )
        samples.slices.append(timings)


WORKLOADS = {
    "paper_replay": paper_replay,
    "ood_jitter": ood_jitter,
    "fleet_batch": FleetWorkload,
    "service_load": ServiceWorkload,
}
