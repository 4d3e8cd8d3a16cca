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
"""

import json

from repro.core.online import OnlineClassifier
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet

from conftest import best_of_pairs, emit

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
