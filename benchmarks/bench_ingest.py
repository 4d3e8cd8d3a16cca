"""Ingest-plane throughput — drained batches must stay ≥ 10× per-announcement.

Times the per-announcement push path (an ``OnlineClassifier`` on a
``MulticastChannel``: every announcement classified on delivery)
against the ingest plane (an ``OnlineClassifier`` on an
``IngestPlane``: announcements land in the plane's columnar per-node
ring store and the consumer pumps merged, watermarked windows of up to
4096 rows through one vectorized pass) on a synthetic 64-node fleet.  Both arms share the
batch-size-invariant ``classify_rows`` kernel, so the untimed warm-up
pass asserts bit-identical class codes per announcement and identical
per-node fan-back state before any timing happens.  The arms are timed
in interleaved pairs with a min-of-repeats estimator.

The traffic is ``synthetic_fleet``: uniform random metric vectors, out
of distribution for the Table-2 training pool, so the kNN search sees
queries far from every pool point.  The gate measures the push-vs-pull
dispatch ratio, not the paper's traffic; the ``paper_replay`` workload
of ``benchmarks/layers/bench_layers.py`` replays the Table-3 runs for
that.

The ≥ 10× floor is the acceptance criterion and is enforced in *both*
modes — smoke shrinks the fleet and repeat count for CI runners but the
vectorization win is large enough (≈ 25× measured) that the gate holds
with margin.  Full mode writes the trajectory point ``BENCH_ingest.json``;
a second bench repeats the bit-identity contract in float32 tolerance
mode (``BENCH_ingest_f32.json``) — per dtype, drained-batch results must
match that dtype's own per-announcement path exactly.

A third gate times ``IngestPlane.push`` itself against ``ReferencePlane``
below, whose ``push`` is the one that wrote the store through NumPy
item and row assignments (four per announcement), copied here as the
reference.  One in-order and one jittered ``synthetic_fleet`` stream go
through both planes, in chunks with observability on for every other
chunk and a drain after each, on a ring that holds the whole stream and
on one that overflows.  Every push's return value, every drained row
(node ids, timestamps, value bits, trace ids, enqueue times), each
obs-on chunk's counters and the final ``IngestStats`` must be identical
before any timing.  Then both arms push each stream into a new plane,
timed in interleaved rounds, and the median over rounds of the
reference's time over the new ``push``'s must be ≥ 1.25 on both
streams, in smoke and full mode (``BENCH_ingest_push.json``, which
also records each arm's best time per announcement).  Every other
round runs the arms in reverse order.  The gate times ``push`` alone:
``ReferencePlane`` inherits the current ``drain`` and ``_restore_order``,
which zero the trace columns of the slots they empty so that an
untraced ``push`` need not write them.  That drain-side cost is left
to the layered benchmark (``gather.us_per_call`` in its traced runs).
"""

import itertools
import json
import math

import numpy as np

from repro import obs
from repro.core.online import OnlineClassifier
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
from repro.ingest.plane import _DROPPED, _LATE, _RECEIVED
from repro.metrics.catalog import NUM_METRICS

from conftest import best_of_pairs, emit, interleaved_rounds

#: Full-mode fleet: the acceptance criterion's 64-node synthetic fleet.
FULL_NODES = 64
FULL_PER_NODE = 400
FULL_REPEATS = 5
#: Smoke-mode fleet (CI shared runners): smaller, fewer repeats.
SMOKE_NODES = 64
SMOKE_PER_NODE = 80
SMOKE_REPEATS = 3
#: Rows per pump of the ingest arm.
PUMP_ROWS = 4096
#: The acceptance floor, enforced in both modes.
MIN_SPEEDUP = 10.0
#: What the fleet is, recorded in every payload.
TRAFFIC = (
    "synthetic_fleet: out of distribution for the Table-2 pool; the paper's "
    "traffic is the paper_replay workload of benchmarks/layers/bench_layers.py"
)


def _node_states(online: OnlineClassifier) -> list[tuple]:
    """Every node's rolling state as plain values, in node order."""
    return [
        (node, s.class_counts.tolist(), s.current_class, s.streak, s.snapshots_seen, s.last_timestamp)
        for node, s in ((node, online.state(node)) for node in online.nodes())
    ]


def _run(classifier, smoke):
    nodes = SMOKE_NODES if smoke else FULL_NODES
    per_node = SMOKE_PER_NODE if smoke else FULL_PER_NODE
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    announcements = synthetic_fleet(nodes, per_node, seed=0)
    total = len(announcements)

    def push_arm():
        channel = MulticastChannel()
        online = OnlineClassifier(classifier, channel)
        for announcement in announcements:
            channel.announce(announcement)
        return online

    def pull_arm():
        channel = MulticastChannel()
        online = OnlineClassifier(classifier, IngestPlane(channel, capacity=per_node))
        for announcement in announcements:
            channel.announce(announcement)
        drained = []
        while len(result := online.pump(PUMP_ROWS)):
            drained.append(result)
        return online, drained

    # Untimed warm-up pass of each arm: identical per-node state after
    # the whole fleet, and identical codes per announcement (per node,
    # the drains and the fleet's arrival order are both in timestamp
    # order).
    push_online = push_arm()
    pull_online, drained = pull_arm()
    push_codes: dict[str, list[int]] = {}
    for announcement in announcements:
        code = int(push_online.classify(announcement))
        push_codes.setdefault(announcement.node, []).append(code)
    pull_codes: dict[str, list[int]] = {}
    for result in drained:
        for node in result.nodes:
            codes = result.codes_for(node)
            if codes.shape[0]:
                pull_codes.setdefault(node, []).extend(int(c) for c in codes)
    identical = _node_states(push_online) == _node_states(pull_online) and push_codes == pull_codes

    push_s, pull_s = best_of_pairs([push_arm, pull_arm], repeats)
    return {
        "num_nodes": nodes,
        "num_announcements": total,
        "repeats": repeats,
        "per_announcement_ms": push_s * 1e3,
        "ingest_ms": pull_s * 1e3,
        "per_announcement_rate": total / push_s,
        "ingest_rate": total / pull_s,
        "speedup": push_s / pull_s,
        "drains": len(drained),
        "bit_identical": identical,
        "mode": "smoke" if smoke else "full",
        "floor": MIN_SPEEDUP,
        "traffic": TRAFFIC,
    }


def test_ingest_throughput(classifier, out_dir, smoke):
    result = _run(classifier, smoke)
    emit(out_dir, "BENCH_ingest.json", json.dumps(result, indent=2, sort_keys=True))

    assert result["bit_identical"], "drained-batch results diverged from the per-announcement path"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"ingest speedup {result['speedup']:.2f}x below the {MIN_SPEEDUP:.0f}x floor "
        f"(per-announcement {result['per_announcement_ms']:.2f} ms vs ingest "
        f"{result['ingest_ms']:.2f} ms over {result['num_announcements']} announcements / "
        f"{result['drains']} drains)"
    )


def test_ingest_bit_identity_float32(classifier_f32, out_dir, smoke):
    result = _run(classifier_f32, smoke)
    emit(out_dir, "BENCH_ingest_f32.json", json.dumps(result, indent=2, sort_keys=True))

    assert result["bit_identical"], (
        "float32 drained-batch results diverged from the float32 per-announcement path"
    )
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"float32 ingest speedup {result['speedup']:.2f}x below the {MIN_SPEEDUP:.0f}x floor"
    )


# ----------------------------------------------------------------------
# Per-announcement intake: IngestPlane.push against the NumPy-write push
# ----------------------------------------------------------------------
#: Intake streams: nodes and announcements per node, in each mode.
PUSH_FULL_NODES, PUSH_FULL_PER_NODE, PUSH_FULL_REPEATS = 64, 400, 50
PUSH_SMOKE_NODES, PUSH_SMOKE_PER_NODE, PUSH_SMOKE_REPEATS = 64, 80, 50
#: The jittered stream's arrival jitter and the plane's lateness: the jitter
#: is wider than the 5 s heartbeat, so a node's own announcements arrive out
#: of order and some land behind the drained frontier.
PUSH_JITTER_S, PUSH_LATENESS_S = 8.0, 2.5
#: Announcements pushed between drains in the identity check, and the
#: small ring capacity that makes it overflow.
IDENTITY_CHUNK, OVERFLOW_CAPACITY = 700, 4
#: The push gate, the same in both modes.
MIN_PUSH_SPEEDUP = 1.25


class ReferencePlane(IngestPlane):
    """An ``IngestPlane`` whose ``push`` writes the store through NumPy indexing."""

    def push(self, node, timestamp, values):
        self._received += 1
        observed = obs.enabled()
        if observed:
            obs.get(_RECEIVED).inc()
        timestamp = float(timestamp)
        if self._allow is not None and node not in self._allow:
            self._filtered += 1
            return self._dropped("filtered", observed)
        if not math.isfinite(timestamp):
            return self._drop_invalid(observed)
        node_id = self._node_id.get(node)
        if node_id is None:
            node_id = self._register(node)
        newest = self._newest[node_id]
        if timestamp == newest:
            self._duplicates += 1
            return self._dropped("duplicate", observed)
        late = timestamp <= self._frontier
        if late and self.late_policy == "drop":
            self._late_dropped += 1
            return self._dropped("late", observed)
        try:
            sized = len(values) == NUM_METRICS
        except TypeError:
            sized = False
        if not sized:
            return self._drop_invalid(observed)
        trace_id = 0
        enqueued_s = 0.0
        if observed:
            registry = obs.get_registry()
            trace_id = registry.next_trace_id()
            enqueued_s = registry.clock()
        count = self._count[node_id]
        head = self._head[node_id]
        full = count == self.capacity
        slot = head if full else (head + count) % self.capacity
        try:
            self._vals[slot, node_id] = values
        except ValueError:
            return self._drop_invalid(observed)
        self._ts[slot, node_id] = timestamp
        self._tid[slot, node_id] = trace_id
        self._enq[slot, node_id] = enqueued_s
        if slot >= self._written:
            self._written = slot + 1
        if full:
            self._head[node_id] = (head + 1) % self.capacity
            self._overflowed += 1
            if observed:
                obs.get(_DROPPED["overflow"]).inc()
        else:
            self._count[node_id] = count + 1
        if timestamp < newest:
            self._unordered.add(node_id)
        else:
            self._newest[node_id] = timestamp
        if late:
            self._late_accepted += 1
            if observed:
                obs.get(_LATE).inc()
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        return True


def _intake_streams(smoke):
    """The in-order and the jittered stream as (node, timestamp, values) items, with their lateness."""
    nodes = PUSH_SMOKE_NODES if smoke else PUSH_FULL_NODES
    per_node = PUSH_SMOKE_PER_NODE if smoke else PUSH_FULL_PER_NODE
    streams = {
        "in_order": (synthetic_fleet(nodes, per_node, seed=0), 0.0),
        "jittered": (synthetic_fleet(nodes, per_node, seed=1, arrival_jitter_s=PUSH_JITTER_S), PUSH_LATENESS_S),
    }
    return per_node, {
        name: ([(a.node, a.timestamp, a.values) for a in announcements], lateness)
        for name, (announcements, lateness) in streams.items()
    }


def _drained(batch):
    """Every field of a drained batch, arrays as bytes."""
    return (
        batch.nodes,
        batch.node_ids.tobytes(),
        batch.timestamps.tobytes(),
        batch.values.tobytes(),
        batch.trace_ids.tobytes(),
        batch.enqueued_s.tobytes(),
        batch.watermark,
        batch.drained_s,
    )


def _replay(plane_cls, items, capacity, lateness_s):
    """Push *items* in chunks, obs on for every other chunk, draining after each; every outcome."""
    plane = plane_cls(capacity=capacity, lateness_s=lateness_s)
    outcome = []
    for k, start in enumerate(range(0, len(items), IDENTITY_CHUNK)):
        registry = None
        if k % 2 == 0:
            ticks = itertools.count(1)
            registry = obs.enable(clock=lambda: float(next(ticks)))
        try:
            accepted = [plane.push(*item) for item in items[start : start + IDENTITY_CHUNK]]
            batch = _drained(plane.drain())
        finally:
            obs.disable()
        counters = []
        if registry is not None:
            counters = [(i.name, i.labels, i.value) for i in registry.instruments() if i.kind == "counter"]
        outcome.append((accepted, batch, counters))
    outcome.append(_drained(plane.drain(flush=True)))
    outcome.append(plane.stats())
    return outcome


def _push_all(plane_cls, items, capacity, lateness_s):
    plane = plane_cls(capacity=capacity, lateness_s=lateness_s)
    push = plane.push
    for node, timestamp, values in items:
        push(node, timestamp, values)


def test_push_matches_the_reference(smoke):
    per_node, streams = _intake_streams(smoke)
    for name, (items, lateness) in streams.items():
        for capacity in (per_node, OVERFLOW_CAPACITY):
            got = _replay(IngestPlane, items, capacity, lateness)
            want = _replay(ReferencePlane, items, capacity, lateness)
            assert got == want, f"{name} stream, capacity {capacity}: push differs from the reference"
            stats = got[-1]
            assert stats.drained_rows == len(items) - stats.overflowed
            assert (stats.overflowed > 0) == (capacity == OVERFLOW_CAPACITY)
            assert (stats.late_accepted > 0) == (name == "jittered")


def test_push_speedup(out_dir, smoke):
    per_node, streams = _intake_streams(smoke)
    repeats = PUSH_SMOKE_REPEATS if smoke else PUSH_FULL_REPEATS
    arms = []
    for items, lateness in streams.values():
        for plane_cls in (IngestPlane, ReferencePlane):
            arms.append(lambda c=plane_cls, i=items, lt=lateness: _push_all(c, i, per_node, lt))
    # One round times every arm once, back to back, and every other
    # round runs them in reverse so neither side always goes first; the
    # gated figure is the median over rounds of each round's ratio, so a
    # slow spell of a shared host moves both sides of a ratio together.
    rounds = interleaved_rounds(arms, repeats)
    payload = {"mode": "smoke" if smoke else "full", "repeats": repeats, "floor": MIN_PUSH_SPEEDUP}
    for k, (name, (items, _)) in enumerate(streams.items()):
        push_s, reference_s = rounds[:, 2 * k], rounds[:, 2 * k + 1]
        payload[name] = {
            "announcements": len(items),
            "push_ns": push_s.min() / len(items) * 1e9,
            "reference_ns": reference_s.min() / len(items) * 1e9,
            "speedup": float(np.median(reference_s / push_s)),
        }
    emit(out_dir, "BENCH_ingest_push.json", json.dumps(payload, indent=2, sort_keys=True))

    for name in streams:
        result = payload[name]
        assert result["speedup"] >= MIN_PUSH_SPEEDUP, (
            f"{name}: push {result['speedup']:.2f}x the reference, below the {MIN_PUSH_SPEEDUP:.2f}x floor "
            f"({result['push_ns']:.0f} vs {result['reference_ns']:.0f} ns per announcement)"
        )
