"""A stateful model of ``IngestPlane``: every push, drain and counter.

The oracle is a plain per-node Python list of buffered rows.  Hypothesis
drives the plane and the model through the same push and drain calls,
in any order, with in-order, out-of-order, duplicate, non-finite
(timestamps and values), wrong-length, filtered and overflowing input, under both late policies,
with observability switched on, off, reset and replaced along the way.
After every step the plane's public state must equal the model's.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import obs
from repro.ingest import IngestPlane
from repro.metrics.catalog import NUM_METRICS

NODES = ("a", "b", "c", "z")
ALLOWED = ("a", "b", "c")
#: Timestamps on a coarse grid, so duplicates and reordering are common.
GRID = st.integers(0, 40).map(lambda k: k * 0.5)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Values that are not a length-33 vector, each dropped as invalid.
MALFORMED = {
    "empty": lambda: np.ones(0),
    "short": lambda: np.ones(NUM_METRICS - 1),
    "long": lambda: np.ones(NUM_METRICS + 1),
    "length-1": lambda: np.ones(1),
    "scalar": lambda: 7.0,
    "numpy scalar": lambda: np.float64(7.0),
    "0-d array": lambda: np.array(7.0),
}
COUNTER_KEYS = (
    ("ingest.announcements.received", ()),
    ("ingest.announcements.late", ()),
    *(
        ("ingest.announcements.dropped", (("reason", reason),))
        for reason in ("filtered", "invalid", "duplicate", "late", "overflow")
    ),
)


class Row:
    """One accepted announcement as the model holds it."""

    __slots__ = ("seq", "ts", "values", "trace_id", "enqueued_s")

    def __init__(self, seq: int, ts: float, values: np.ndarray, trace_id: int, enqueued_s: float) -> None:
        self.seq = seq
        self.ts = ts
        self.values = values
        self.trace_id = trace_id
        self.enqueued_s = enqueued_s


class IngestPlaneMachine(RuleBasedStateMachine):
    """Drive one plane and its list model in lockstep."""

    late_policy = "accept"

    def __init__(self) -> None:
        super().__init__()
        self.plane: IngestPlane | None = None
        self.now = 0.0  # the registry clock's reading while obs is on
        self.seq = 0
        self.emitted: set[int] = set()
        self.dropped: set[int] = set()
        self.previous_frontier = -math.inf

    # ------------------------------------------------------------------
    # set-up and observability
    # ------------------------------------------------------------------
    @initialize(
        capacity=st.sampled_from([1, 2, 3, 5, 64]),
        lateness=st.sampled_from([0.0, 0.5, 2.0]),
        allow=st.booleans(),
        observed=st.booleans(),
    )
    def setup(self, capacity, lateness, allow, observed):
        self.capacity = capacity
        self.lateness = lateness
        self.allow = ALLOWED if allow else None
        self.plane = IngestPlane(
            capacity=capacity, lateness_s=lateness, late_policy=self.late_policy, nodes=self.allow
        )
        self.order: list[str] = list(self.allow or ())
        self.buffers: dict[str, list[Row]] = {node: [] for node in self.order}
        self.newest: dict[str, float] = {}
        self.max_seen = -math.inf
        self.frontier = -math.inf
        self.counts = dict.fromkeys(
            ("received", "filtered", "invalid", "late_accepted", "late_dropped", "duplicates",
             "overflowed", "drains", "drained_rows"),
            0,
        )
        self.registry = None
        if observed:
            self.switch_obs_on()

    def switch_obs_on(self) -> None:
        obs.disable()
        self.registry = obs.enable(clock=lambda: self.now)
        self.next_trace = 1
        self.obs_counts = dict.fromkeys(COUNTER_KEYS, 0)

    def teardown(self) -> None:
        obs.disable()

    @rule()
    def toggle_obs(self):
        if self.registry is None:
            self.switch_obs_on()
        else:
            obs.disable()
            self.registry = None

    @precondition(lambda self: self.registry is not None)
    @rule()
    def reset_registry(self):
        obs.reset()  # trace ids keep counting; every instrument starts over
        self.obs_counts = dict.fromkeys(COUNTER_KEYS, 0)

    def count_obs(self, name: str, reason: str | None = None) -> None:
        if self.registry is not None:
            self.obs_counts[(name, (("reason", reason),) if reason else ())] += 1

    # ------------------------------------------------------------------
    # the model's push
    # ------------------------------------------------------------------
    def model_push(self, node: str, ts: float, values) -> int | None:
        """Apply one push to the model; returns the row's seq if accepted."""
        self.counts["received"] += 1
        self.count_obs("ingest.announcements.received")
        if self.allow is not None and node not in self.allow:
            self.counts["filtered"] += 1
            self.count_obs("ingest.announcements.dropped", "filtered")
            return None
        if not math.isfinite(ts):
            self.counts["invalid"] += 1
            self.count_obs("ingest.announcements.dropped", "invalid")
            return None
        if node not in self.buffers:
            self.order.append(node)
            self.buffers[node] = []
        if node in self.newest and ts == self.newest[node]:
            self.counts["duplicates"] += 1
            self.count_obs("ingest.announcements.dropped", "duplicate")
            return None
        late = ts <= self.frontier
        if late and self.late_policy == "drop":
            self.counts["late_dropped"] += 1
            self.count_obs("ingest.announcements.dropped", "late")
            return None
        if not (isinstance(values, np.ndarray) and values.shape == (NUM_METRICS,)):
            self.counts["invalid"] += 1
            self.count_obs("ingest.announcements.dropped", "invalid")
            return None
        trace_id = 0
        if self.registry is not None:
            trace_id = self.next_trace
            self.next_trace += 1
        buffer = self.buffers[node]
        if len(buffer) == self.capacity:
            evicted = buffer.pop(0)
            self.dropped.add(evicted.seq)
            self.counts["overflowed"] += 1
            self.count_obs("ingest.announcements.dropped", "overflow")
        if late:
            self.counts["late_accepted"] += 1
            self.count_obs("ingest.announcements.late")
        enqueued_s = self.now if self.registry is not None else 0.0
        buffer.append(Row(self.seq, ts, np.array(values, dtype=np.float64), trace_id, enqueued_s))
        self.newest[node] = max(self.newest.get(node, -math.inf), ts)
        self.max_seen = max(self.max_seen, ts)
        return self.seq

    def push_both(self, node: str, ts: float, values) -> None:
        self.seq += 1
        self.now += 1.0
        accepted = self.model_push(node, ts, values)
        got = self.plane.push(node, ts, values)
        assert got is (accepted is not None), (node, ts)
        if accepted is None:
            self.dropped.add(self.seq)

    def row_values(self) -> np.ndarray:
        return np.full(NUM_METRICS, float(self.seq + 1))

    # ------------------------------------------------------------------
    # push rules
    # ------------------------------------------------------------------
    @rule(node=st.sampled_from(NODES), ts=GRID)
    def push(self, node, ts):
        self.push_both(node, ts, self.row_values())

    @rule(node=st.sampled_from(NODES), step=st.sampled_from([0.5, 1.0, 3.0]))
    def push_in_order(self, node, step):
        start = 0.0 if self.max_seen == -math.inf else self.max_seen
        self.push_both(node, start + step, self.row_values())

    @rule(node=st.sampled_from(NODES), back=st.sampled_from([0.5, 1.0, 2.5, 10.0]))
    def push_out_of_order(self, node, back):
        start = 0.0 if self.max_seen == -math.inf else self.max_seen
        self.push_both(node, start - back, self.row_values())

    @precondition(lambda self: bool(self.newest))
    @rule(data=st.data())
    def push_duplicate(self, data):
        node = data.draw(st.sampled_from(sorted(self.newest)))
        self.push_both(node, self.newest[node], self.row_values())

    @rule(node=st.sampled_from(NODES), ts=NON_FINITE)
    def push_non_finite_timestamp(self, node, ts):
        self.push_both(node, ts, self.row_values())

    @rule(node=st.sampled_from(NODES), ts=GRID, bad=NON_FINITE, column=st.integers(0, NUM_METRICS - 1))
    def push_non_finite_values(self, node, ts, bad, column):
        """Accepted at push; the drain that reaches the row drops it as invalid."""
        values = self.row_values()
        values[column] = bad
        self.push_both(node, ts, values)

    @rule(node=st.sampled_from(NODES), ts=GRID, kind=st.sampled_from(sorted(MALFORMED)))
    def push_malformed(self, node, ts, kind):
        self.push_both(node, ts, MALFORMED[kind]())

    @rule(node=st.sampled_from(NODES), n=st.integers(2, 12))
    def push_burst(self, node, n):
        for _ in range(n):
            self.push_in_order(node, 0.5)

    # ------------------------------------------------------------------
    # the model's drain
    # ------------------------------------------------------------------
    def model_drain(self, max_rows: int | None, flush: bool) -> tuple[float, list[tuple[int, Row]]]:
        for buffer in self.buffers.values():
            buffer.sort(key=lambda row: row.ts)  # stable: arrival order on ties
        watermark = math.inf if flush else self.max_seen - self.lateness
        window = [
            (node_id, row)
            for node_id, node in enumerate(self.order)
            for row in self.buffers[node]
            if row.ts <= watermark
        ]
        window.sort(key=lambda item: item[1].ts)  # stable: node order, then arrival
        if max_rows is not None:
            window = window[:max_rows]
        kept = []
        for node_id, row in window:
            self.buffers[self.order[node_id]].pop(0)
            if np.isfinite(row.values).all():
                kept.append((node_id, row))
            else:
                self.dropped.add(row.seq)
                self.counts["invalid"] += 1
                self.count_obs("ingest.announcements.dropped", "invalid")
        window = kept
        if window:
            self.frontier = max(self.frontier, window[-1][1].ts)
            self.counts["drains"] += 1
            self.counts["drained_rows"] += len(window)
        return watermark, window

    def check_batch(self, batch, watermark: float, window: list[tuple[int, Row]]) -> None:
        assert batch.nodes == tuple(self.order)
        assert batch.watermark == watermark
        assert batch.node_ids.tolist() == [node_id for node_id, _ in window]
        assert batch.timestamps.tolist() == [row.ts for _, row in window]
        expected = np.array([row.values for _, row in window]).reshape(len(window), NUM_METRICS)
        assert np.array_equal(batch.values, expected)
        assert batch.trace_ids.tolist() == [row.trace_id for _, row in window]
        assert batch.enqueued_s.tolist() == [row.enqueued_s for _, row in window]
        for _, row in window:
            assert row.seq not in self.emitted, "a row was emitted twice"
            self.emitted.add(row.seq)

    def check_occupancy_gauges(self) -> None:
        if self.registry is None:
            return
        for node in self.order:
            gauge = self.registry.gauge("ingest.ring.occupancy", node=node)
            assert gauge.value == len(self.buffers[node]) / self.capacity

    # ------------------------------------------------------------------
    # drain rules
    # ------------------------------------------------------------------
    @rule(max_rows=st.none() | st.integers(1, 6), flush=st.booleans())
    def drain(self, max_rows, flush):
        self.now += 1.0
        batch = self.plane.drain(max_rows, flush=flush)
        self.check_batch(batch, *self.model_drain(max_rows, flush))
        self.check_occupancy_gauges()

    @rule(chunk=st.integers(1, 4), flush=st.booleans())
    def drain_in_chunks(self, chunk, flush):
        """Chunked drains, run until one consumes nothing, equal one drain."""
        watermark, window = self.model_drain(None, flush)
        drains_before = self.counts["drains"] - (1 if window else 0)
        timestamps, node_ids, values, trace_ids = [], [], [], []
        chunks = 0
        while True:
            before = self.plane.buffered
            batch = self.plane.drain(chunk, flush=flush)
            assert batch.watermark == watermark
            if self.plane.buffered == before:
                assert len(batch) == 0
                break
            chunks += 1 if len(batch) else 0  # a drain that emits nothing is not counted
            timestamps.extend(batch.timestamps.tolist())
            node_ids.extend(batch.node_ids.tolist())
            values.extend(batch.values.tolist())
            trace_ids.extend(batch.trace_ids.tolist())
        assert timestamps == [row.ts for _, row in window]
        assert node_ids == [node_id for node_id, _ in window]
        assert values == [row.values.tolist() for _, row in window]
        assert trace_ids == [row.trace_id for _, row in window]
        for _, row in window:
            assert row.seq not in self.emitted
            self.emitted.add(row.seq)
        self.counts["drains"] = drains_before + chunks
        self.check_occupancy_gauges()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def stats_equal_the_model(self):
        if self.plane is None:
            return
        stats = self.plane.stats()
        buffered = sum(len(buffer) for buffer in self.buffers.values())
        assert stats.buffered == self.plane.buffered == buffered
        for name, value in self.counts.items():
            assert getattr(stats, name) == value, name
        assert stats.received == (
            stats.filtered + stats.invalid + stats.late_dropped + stats.duplicates
            + stats.overflowed + stats.drained_rows + stats.buffered
        )

    @invariant()
    def layout_equals_the_model(self):
        if self.plane is None:
            return
        assert self.plane.node_names == tuple(self.order)
        assert self.plane.occupancy() == {
            node: len(self.buffers[node]) / self.capacity for node in self.order
        }
        assert self.plane.watermark == self.max_seen - self.lateness

    @invariant()
    def frontier_is_monotone_and_modelled(self):
        if self.plane is None:
            return
        assert self.plane.frontier == self.frontier
        assert self.plane.frontier >= self.previous_frontier
        self.previous_frontier = self.plane.frontier

    @invariant()
    def nothing_dropped_is_emitted(self):
        assert not (self.emitted & self.dropped)

    @invariant()
    def counters_equal_the_model(self):
        if self.plane is None or self.registry is None:
            return
        for (name, labels), value in self.obs_counts.items():
            assert self.registry.counter(name, **dict(labels)).value == value, (name, labels)


class DropLateMachine(IngestPlaneMachine):
    late_policy = "drop"


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)


@pytest.mark.parametrize("machine", [IngestPlaneMachine, DropLateMachine], ids=["accept", "drop"])
def test_ingest_plane_matches_its_list_model(machine):
    run_state_machine_as_test(machine, settings=MACHINE_SETTINGS)
