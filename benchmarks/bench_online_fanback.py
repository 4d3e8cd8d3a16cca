"""Columnar fan-back — the array fold must stay ≥ 5× the per-node loop.

Times ``OnlineClassifier``'s drain fan-back, which keeps node state as
columns by local node id and folds a classified drain into them in one
vectorised pass (two bincounts and one stable sort by node), against
``per_node_loop`` below: the fan-back it replaced, one boolean mask and
one ``NodeClassificationState`` update per node in the drain, copied
here as the reference.  Both arms fold the same drain: 4096
announcements of a 256-node ``synthetic_fleet`` (16 heartbeats per
node), merged by ``IngestPlane.drain`` and classified once by the
float64 classifier.  The new arm's figure includes mapping the plane's
node ids to local ids, as ``pump`` does.

Before any timing, both arms fold the drain whole and then again as
61-row and 1024-row chunks (so streaks run across drain boundaries),
and every node's state must be equal field for field after each pass.
The arms are timed in interleaved pairs with a best-of-N estimator, so
a slow period of the host moves both together.  The gate is a ratio of
two arms on the same machine; it is the same in smoke and full mode.
The result is written to ``benchmarks/out/BENCH_online_fanback.json``.
"""

import json

import numpy as np

from repro.core.labels import ALL_CLASSES, SnapshotClass
from repro.core.online import NodeClassificationState, OnlineClassifier
from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet

from conftest import best_of_pairs, emit

#: The drain: 256 nodes × 16 heartbeats = 4096 rows.
NODES, PER_NODE = 256, 16
#: Rows per drain of the chunked correctness passes: ~one row per node,
#: then ~four rows per node, so a node's slice is often one class.
CHUNK_ROWS = (61, 1024)
#: Timed pairs, and calls per timing, in each mode.
FULL_REPEATS, FULL_CALLS = 30, 4
SMOKE_REPEATS, SMOKE_CALLS = 10, 2
#: The gate, the same in both modes.
MIN_SPEEDUP = 5.0


def per_node_loop(states, nodes, node_ids, timestamps, codes):
    """The per-node fan-back the columnar fold replaced (the reference)."""
    for node_id in np.unique(node_ids):
        sel = node_ids == node_id
        node_codes = codes[sel]
        node_ts = timestamps[sel]
        node = nodes[int(node_id)]
        state = states.get(node)
        if state is None:
            state = NodeClassificationState(node=node)
            states[node] = state
        state.class_counts += np.bincount(node_codes, minlength=len(ALL_CLASSES))
        count = int(node_codes.shape[0])
        state.snapshots_seen += count
        state.last_timestamp = float(node_ts[-1])
        last = SnapshotClass(int(node_codes[-1]))
        changes = np.flatnonzero(node_codes[:-1] != node_codes[1:])
        if changes.size:
            streak = count - 1 - int(changes[-1])
        elif state.current_class is last:
            streak = state.streak + count
        else:
            streak = count
        state.current_class = last
        state.streak = streak


def columnar_fold(online, nodes, node_ids, timestamps, codes):
    """The fan-back ``pump`` runs: map plane ids to local ids, fold once."""
    online._map_plane_nodes(nodes)
    online._record_codes(online._plane_local[node_ids], timestamps, codes)


def state_rows(states):
    """Every node's state as plain values, in node order."""
    return {
        node: (s.class_counts.tolist(), s.current_class, s.streak, s.snapshots_seen, s.last_timestamp)
        for node, s in sorted(states.items())
    }


def test_online_fanback_speedup(classifier, out_dir, smoke):
    channel = MulticastChannel()
    plane = IngestPlane(channel, capacity=PER_NODE)
    for announcement in synthetic_fleet(NODES, PER_NODE, seed=0):
        channel.announce(announcement)
    batch = plane.drain(flush=True)
    nodes = batch.nodes
    node_ids = batch.node_ids.copy()
    timestamps = batch.timestamps.copy()
    codes = classifier.classify_rows(batch.values[:, classifier._metric_idx])
    rows = len(codes)
    assert rows == NODES * PER_NODE and len(nodes) == NODES

    # Same state as the reference, folded whole and then in chunks.
    online = OnlineClassifier(classifier, plane)
    reference: dict[str, NodeClassificationState] = {}
    for cut in (rows, *CHUNK_ROWS):
        for lo in range(0, rows, cut):
            part = slice(lo, lo + cut)
            args = (nodes, node_ids[part], timestamps[part], codes[part])
            columnar_fold(online, *args)
            per_node_loop(reference, *args)
        folded = {node: online.state(node) for node in online.nodes()}
        assert state_rows(folded) == state_rows(reference), "the columnar fold changed a node's state"

    repeats, calls = (SMOKE_REPEATS, SMOKE_CALLS) if smoke else (FULL_REPEATS, FULL_CALLS)
    fold_s, loop_s = best_of_pairs(
        [
            lambda: columnar_fold(online, nodes, node_ids, timestamps, codes),
            lambda: per_node_loop(reference, nodes, node_ids, timestamps, codes),
        ],
        repeats,
        calls,
    )
    speedup = loop_s / fold_s

    payload = {
        "mode": "smoke" if smoke else "full",
        "rows": rows,
        "nodes": NODES,
        "fold_ns_per_row": fold_s * 1e9 / rows,
        "per_node_loop_ns_per_row": loop_s * 1e9 / rows,
        "speedup": speedup,
        "floor": MIN_SPEEDUP,
    }
    emit(out_dir, "BENCH_online_fanback.json", json.dumps(payload, indent=2, sort_keys=True))

    assert speedup >= MIN_SPEEDUP, (
        f"columnar fan-back {speedup:.2f}x the per-node loop, below the "
        f"{MIN_SPEEDUP:.1f}x floor ({fold_s * 1e9 / rows:.0f} vs {loop_s * 1e9 / rows:.0f} ns/row)"
    )
