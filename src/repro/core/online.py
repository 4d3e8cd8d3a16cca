"""Online (streaming) classification service.

The paper's §5.3 cost analysis concludes the classifier is cheap enough
"to consider the classifier for online training".  This module supplies
the runtime piece: an :class:`OnlineClassifier` consumes the monitoring
substrate's announcements and classifies them, maintaining per-node
rolling state — current class, class streak, and running composition —
that a scheduler can query mid-run instead of waiting for the
application to finish.

Two consumption modes share one kernel:

* **push** — attached to a raw multicast channel, every announcement is
  classified on delivery (the paper's §4 shape);
* **pull** — attached to an ingest plane (:mod:`repro.ingest`), batches
  of ring-buffered announcements are drained, classified in one
  vectorized call, and fanned back into the same per-node state
  (:meth:`OnlineClassifier.pump`).

Both modes run the batch-size-invariant
:meth:`~repro.core.pipeline.ApplicationClassifier.classify_rows`
kernel, so the drained-batch results are bit-identical (per compute
dtype) to classifying each announcement alone.

Per-node state is kept as columns indexed by a local node id — class
counts ``(nodes, 5)``, snapshots seen, last timestamp, current class
code (−1 before the first snapshot) and streak — so a drain is folded
in one vectorised pass with no per-node Python loop, and a push
delivery is five scalar writes.  Both reproduce the sequential
:meth:`NodeClassificationState.record` fold exactly;
:meth:`OnlineClassifier.state` builds a :class:`NodeClassificationState`
snapshot from the columns when it is queried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..errors import NotTrainedError
from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from ..obs import InstrumentSpec, enabled as obs_enabled, event as obs_event, get as obs_get
from .labels import ALL_CLASSES, ClassComposition, SnapshotClass
from .pipeline import ApplicationClassifier

_DROPPED = InstrumentSpec.counter("online.announcements.dropped", "Announcements ignored.")
_CLASSIFIED = InstrumentSpec.counter("online.announcements.classified", "Announcements classified.")
_ANNOUNCEMENT_SECONDS = InstrumentSpec.histogram(
    "online.announcement.seconds", "Per-announcement online classification latency."
)
_BATCH_SECONDS = InstrumentSpec.histogram(
    "online.batch.seconds", "Drained-batch online classification latency."
)
_NUM_CLASSES = len(ALL_CLASSES)
#: Largest node count whose ids sort as uint16 keys (numpy's stable
#: sort is a radix sort at 16 bits, ~10× a 64-bit sort at 4096 rows).
_SMALL_IDS = 1 << 16


@dataclass
class NodeClassificationState:
    """Rolling classification state of one monitored node."""

    node: str
    class_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(len(ALL_CLASSES), dtype=np.int64)
    )
    current_class: SnapshotClass | None = None
    streak: int = 0
    snapshots_seen: int = 0
    last_timestamp: float | None = None

    def record(self, cls: SnapshotClass, timestamp: float) -> None:
        """Fold one classified snapshot into the rolling state."""
        self.class_counts[int(cls)] += 1
        self.snapshots_seen += 1
        self.last_timestamp = timestamp
        if cls is self.current_class:
            self.streak += 1
        else:
            self.current_class = cls
            self.streak = 1

    def composition(self) -> ClassComposition:
        """Running class composition over everything seen so far.

        Raises
        ------
        ValueError
            Before any snapshot arrives.
        """
        if self.snapshots_seen == 0:
            raise ValueError(f"no snapshots seen for node {self.node!r}")
        return ClassComposition(
            fractions=tuple((self.class_counts / self.snapshots_seen).tolist())
        )

    def majority_class(self) -> SnapshotClass:
        """Majority vote over everything seen so far."""
        if self.snapshots_seen == 0:
            raise ValueError(f"no snapshots seen for node {self.node!r}")
        return SnapshotClass(int(self.class_counts.argmax()))


@dataclass(frozen=True)
class DrainClassification:
    """Classified results of one drained announcement batch.

    Parallel arrays in the drain's merged chronological order:
    ``codes[i]`` is the class of the announcement at ``timestamps[i]``
    from node ``nodes[node_ids[i]]``.  Unlike a ``DrainBatch``, the
    arrays here are owned copies — safe to keep across drains.
    """

    nodes: tuple[str, ...]
    node_ids: np.ndarray
    timestamps: np.ndarray
    codes: np.ndarray
    watermark: float

    def __len__(self) -> int:
        """Number of classified announcements."""
        return int(self.codes.shape[0])

    def codes_for(self, node: str) -> np.ndarray:
        """Class codes of *node*'s announcements, in timestamp order.

        Returns a 1-D integer vector of shape ``(rows_for_node,)`` — a
        view selected from the drain-wide :attr:`codes` vector.

        Raises
        ------
        KeyError
            If *node* is not in :attr:`nodes`.
        """
        try:
            node_id = self.nodes.index(node)
        except ValueError:
            raise KeyError(f"node {node!r} not in this drain") from None
        return self.codes[self.node_ids == node_id]


class OnlineClassifier:
    """Classify monitoring announcements as they arrive.

    Parameters
    ----------
    classifier:
        A *trained* :class:`~repro.core.pipeline.ApplicationClassifier`.
    channel:
        Announcement source: either a multicast channel to subscribe to
        (push mode) or an ingest plane to :meth:`pump` drained batches
        from (pull mode).  Duck-typed — a source with ``subscribe`` is
        a channel, one with ``drain`` is a plane.
    nodes:
        Optional allow-list; announcements from other nodes are ignored
        (e.g. track only the application VM, not the server VM).

    Raises
    ------
    NotTrainedError
        If the classifier is untrained (a ``RuntimeError`` subclass).
    """

    def __init__(
        self,
        classifier: ApplicationClassifier,
        channel: MulticastChannel | object,
        nodes: list[str] | None = None,
    ) -> None:
        self.classifier = classifier
        self.channel = channel
        self._allow = set(nodes) if nodes is not None else None
        # Node state as columns by local id (first-seen order); the
        # arrays are sized to a capacity and grown by doubling.
        self._local: dict[str, int] = {}
        self._counts = np.zeros((0, _NUM_CLASSES), dtype=np.int64)
        self._seen = np.zeros(0, dtype=np.int64)
        self._last_ts = np.zeros(0, dtype=np.float64)
        self._current = np.zeros(0, dtype=np.int64)
        self._streak = np.zeros(0, dtype=np.int64)
        # The ingest plane's node tuple as last seen, its plane id →
        # local id map and (with an allow-list) its plane-id allow mask.
        self._plane_nodes: tuple[str, ...] = ()
        self._plane_local = np.zeros(0, dtype=np.intp)
        self._plane_allowed = np.zeros(0, dtype=bool)
        # Bound-method access creates a fresh object each time; keep one
        # reference so unsubscribe can match it by identity.
        self._callback = self._on_announcement
        self._metric_idx: np.ndarray | None = None
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while bound to an announcement source."""
        return self._attached

    def attach(self) -> None:
        """Start (or resume) consuming from the announcement source; idempotent.

        A source with ``subscribe`` is a raw multicast channel and every
        announcement is classified on delivery; a source with ``drain``
        is an ingest plane and announcements are consumed in drained
        batches via :meth:`pump`.

        The classifier's selected-metric index (computed once, at train
        time) is read here, once per attachment, so the per-announcement
        path never touches the catalog and a classifier retrained while
        detached is followed on re-attach.  Node state accumulated
        before a detach is kept — a re-attached classifier resumes its
        rolling compositions.

        Raises
        ------
        NotTrainedError
            If the classifier is untrained.
        TypeError
            If the source is neither a channel nor an ingest plane.
        """
        if self._attached:
            return
        if not self.classifier.trained:
            raise NotTrainedError("online classification requires a trained classifier")
        push_source = hasattr(self.channel, "subscribe")
        if not push_source and not hasattr(self.channel, "drain"):
            raise TypeError(
                "announcement source must be a multicast channel (subscribe) "
                "or an ingest plane (drain), got "
                f"{type(self.channel).__name__}"
            )
        self._metric_idx = self.classifier._metric_idx
        if push_source:
            self.channel.subscribe(self._callback)
        self._attached = True
        obs_event("online.attach", nodes=str(self._tracked()))

    def detach(self) -> None:
        """Unbind from the announcement source (stop consuming).

        Idempotent: a second ``detach()`` is a no-op, and a channel that
        already dropped the subscription (torn down or replaced) is
        tolerated.  Accumulated node state stays queryable; call
        :meth:`attach` to resume consuming.
        """
        if not self._attached:
            return
        self._attached = False
        obs_event("online.detach", nodes=str(self._tracked()))
        if hasattr(self.channel, "subscribe"):
            try:
                self.channel.unsubscribe(self._callback)
            except ValueError:
                # The channel no longer knows this listener (it was torn
                # down or recreated underneath us); detaching twice through
                # different paths must not blow up the shutdown sequence.
                pass

    # ------------------------------------------------------------------
    # streaming path
    # ------------------------------------------------------------------
    def _on_announcement(self, announcement: MetricAnnouncement) -> None:
        if not self._attached:
            # Late delivery after detach (e.g. detach from inside another
            # listener during the same fan-out) — drop, never classify.
            obs_get(_DROPPED).inc()
            return
        if self._allow is not None and announcement.node not in self._allow:
            obs_get(_DROPPED).inc()
            return
        timed = obs_enabled()
        clock = self.classifier.clock
        t = clock() if timed else 0.0
        code = int(self.classify(announcement))
        node = self._local_id(announcement.node)
        # NodeClassificationState.record, written into the columns.
        self._counts[node, code] += 1
        self._seen[node] += 1
        self._last_ts[node] = announcement.timestamp
        if self._current[node] == code:
            self._streak[node] += 1
        else:
            self._current[node] = code
            self._streak[node] = 1
        if timed:
            obs_get(_ANNOUNCEMENT_SECONDS).observe(clock() - t)
            obs_get(_CLASSIFIED).inc()

    def _require_attached(self) -> None:
        """Guard for the classify paths (hoisted state is attach-scoped).

        Raises
        ------
        RuntimeError
            If called while detached (the hoisted selector index array
            is only guaranteed fresh between ``attach()`` and
            ``detach()``).
        """
        if not self._attached or self._metric_idx is None:
            raise RuntimeError(
                "OnlineClassifier is detached; call attach() before classifying announcements"
            )

    def classify(self, snapshot: MetricAnnouncement) -> SnapshotClass:
        """Classify one 33-metric announcement.

        Pure — no per-node state is recorded (delivery through the
        attached source records state; see :meth:`state`).  Runs the
        batch-size-invariant ``classify_rows`` kernel on a single row,
        so the result is bit-identical to the same announcement inside
        any drained batch.  Uses the selector index array hoisted at
        :meth:`attach` time — nothing on this path recomputes catalog
        lookups.

        Raises
        ------
        RuntimeError
            If called while detached.
        """
        self._require_attached()
        raw = snapshot.values[self._metric_idx][None, :]
        code = self.classifier.classify_rows(raw)[0]
        return SnapshotClass(int(code))

    def pump(self, max_rows: int | None = None, *, flush: bool = False) -> DrainClassification:
        """Drain the attached ingest plane once and classify the batch.

        The pull-mode consumption step: drain every announcement behind
        the plane's watermark (all of them with *flush*), classify the
        merged batch in one vectorized call, and fan the results back
        into per-node state.  Returns the classified batch (empty when
        nothing was drainable).

        Raises
        ------
        RuntimeError
            If detached, or if the attached source is not an ingest
            plane.
        """
        self._require_attached()
        if not hasattr(self.channel, "drain"):
            raise RuntimeError("attached source is not an ingest plane; pump() requires one")
        batch = self.channel.drain(max_rows, flush=flush)
        return self._classify_drain(batch)

    # ------------------------------------------------------------------
    # drained-batch fan-back
    # ------------------------------------------------------------------
    def _classify_drain(self, batch) -> DrainClassification:
        """Classify one drained batch and fold it into per-node state."""
        self._require_attached()
        node_ids = np.asarray(batch.node_ids)
        timestamps = np.asarray(batch.timestamps)
        values = batch.values
        if node_ids.shape[0]:
            self._map_plane_nodes(batch.nodes)
            if self._allow is not None:
                keep = self._plane_allowed[node_ids]
                dropped = node_ids.shape[0] - int(np.count_nonzero(keep))
                if dropped:
                    obs_get(_DROPPED).inc(float(dropped))
                    node_ids = node_ids[keep]
                    timestamps = timestamps[keep]
                    values = values[keep]
        if node_ids.shape[0] == 0:
            return DrainClassification(
                nodes=batch.nodes,
                node_ids=node_ids.copy(),
                timestamps=timestamps.copy(),
                codes=np.empty(0, dtype=np.int64),
                watermark=float(batch.watermark),
            )
        timed = obs_enabled()
        clock = self.classifier.clock
        t = clock() if timed else 0.0
        codes = self.classifier.classify_rows(values[:, self._metric_idx])
        self._record_codes(self._plane_local[node_ids], timestamps, codes)
        if timed:
            obs_get(_BATCH_SECONDS).observe(clock() - t)
            obs_get(_CLASSIFIED).inc(float(codes.shape[0]))
        return DrainClassification(
            nodes=batch.nodes,
            node_ids=node_ids.copy(),
            timestamps=timestamps.copy(),
            codes=codes,
            watermark=float(batch.watermark),
        )

    def _local_id(self, node: str) -> int:
        """Local id of *node*, registering it (with empty state) when new."""
        local = self._local.get(node)
        if local is not None:
            return local
        local = len(self._local)
        if local == self._seen.shape[0]:
            self._grow(max(8, 2 * local))
        self._local[node] = local
        return local

    def _grow(self, capacity: int) -> None:
        """Resize every state column to *capacity* nodes, keeping the rows."""
        size = self._seen.shape[0]
        for name, fill in (
            ("_counts", 0), ("_seen", 0), ("_last_ts", np.nan), ("_current", -1), ("_streak", 0)
        ):
            old = getattr(self, name)
            new = np.full((capacity,) + old.shape[1:], fill, dtype=old.dtype)
            new[:size] = old
            setattr(self, name, new)

    def _map_plane_nodes(self, nodes: tuple[str, ...]) -> None:
        """Refresh the plane id → local id map (and allow mask) for *nodes*.

        A plane only appends to its node tuple, so a changed tuple
        whose prefix is the cached one maps only its new names; any
        other tuple (a different plane) is mapped afresh.
        """
        if nodes == self._plane_nodes:
            return
        known = len(self._plane_nodes)
        if nodes[:known] != self._plane_nodes:
            known = 0
        fresh = nodes[known:]
        self._plane_local = np.concatenate(
            [self._plane_local[:known], np.fromiter(map(self._local_id, fresh), np.intp, len(fresh))]
        )
        if self._allow is not None:
            allowed = [name in self._allow for name in fresh]
            self._plane_allowed = np.concatenate(
                [self._plane_allowed[:known], np.array(allowed, dtype=bool)]
            )
        self._plane_nodes = nodes

    def _record_codes(self, local_ids: np.ndarray, timestamps: np.ndarray, codes: np.ndarray) -> None:
        """Fold a classified batch into the node state columns in one pass.

        Vectorised equivalent of calling
        :meth:`NodeClassificationState.record` on each row in timeline
        order.  Class counts are one bincount over
        ``local_id * 5 + code`` and snapshots seen one bincount over the
        local ids.  One stable sort by local id lays each node's rows
        out contiguously in timeline order; its last row gives the
        current class and last timestamp, and its trailing constant run
        (run starts from a running maximum over the node and code
        breaks) gives the streak.  The streak is extended by the
        previous one only where the node's whole slice is one class
        equal to its current class, exactly what the sequential fold
        would have done.
        """
        known = len(self._local)
        self._counts[:known] += np.bincount(
            local_ids * _NUM_CLASSES + codes, minlength=known * _NUM_CLASSES
        ).reshape(known, _NUM_CLASSES)
        self._seen[:known] += np.bincount(local_ids, minlength=known)
        key = local_ids.astype(np.uint16) if known <= _SMALL_IDS else local_ids
        order = np.argsort(key, kind="stable")
        ids = local_ids[order]
        run_codes = codes[order]
        rows = ids.shape[0]
        node_start = np.empty(rows, dtype=bool)
        node_start[0] = True
        np.not_equal(ids[1:], ids[:-1], out=node_start[1:])
        run_start = node_start.copy()
        run_start[1:] |= run_codes[1:] != run_codes[:-1]
        run_from = np.maximum.accumulate(np.where(run_start, np.arange(rows), 0))
        node_end = np.empty(rows, dtype=bool)
        node_end[:-1] = node_start[1:]
        node_end[-1] = True
        ends = np.flatnonzero(node_end)
        nodes = ids[ends]
        last = run_codes[ends]
        run_from = run_from[ends]
        whole = run_from == np.flatnonzero(node_start)
        carried = np.where(whole & (self._current[nodes] == last), self._streak[nodes], 0)
        self._streak[nodes] = ends - run_from + 1 + carried
        self._current[nodes] = last
        self._last_ts[nodes] = timestamps[order[ends]]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _tracked(self) -> int:
        """Number of nodes with at least one classified snapshot."""
        return int(np.count_nonzero(self._seen))

    def _index(self, node: str) -> int:
        """Local id of a node with at least one classified snapshot.

        Raises
        ------
        KeyError
            If the node has produced no classified snapshots.
        """
        local = self._local.get(node)
        if local is None or not self._seen[local]:
            raise KeyError(f"no classified snapshots from node {node!r}")
        return local

    def nodes(self) -> list[str]:
        """Nodes with at least one classified snapshot, sorted."""
        seen = self._seen.tolist()
        return sorted(node for node, local in self._local.items() if seen[local])

    def state(self, node: str) -> NodeClassificationState:
        """A snapshot of *node*'s rolling state, built when queried.

        The returned object is a copy: later deliveries and drains do
        not update it, and changing it does not change the classifier.
        Query again to read newer state.

        Raises
        ------
        KeyError
            If the node has produced no classified snapshots.
        """
        local = self._index(node)
        return NodeClassificationState(
            node=node,
            class_counts=self._counts[local].copy(),
            current_class=SnapshotClass(int(self._current[local])),
            streak=int(self._streak[local]),
            snapshots_seen=int(self._seen[local]),
            last_timestamp=float(self._last_ts[local]),
        )

    def stable_class(self, node: str, min_streak: int = 3) -> SnapshotClass | None:
        """The node's current class, if it has persisted *min_streak* snapshots.

        Returns ``None`` during transients — the online analogue of the
        batch majority vote's noise suppression.

        Raises
        ------
        ValueError
            If *min_streak* is not positive.
        KeyError
            If the node has produced no classified snapshots.
        """
        if min_streak < 1:
            raise ValueError("min_streak must be positive")
        local = self._index(node)
        if self._streak[local] >= min_streak:
            return SnapshotClass(int(self._current[local]))
        return None
