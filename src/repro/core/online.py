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
dtype) to classifying each announcement alone, and the fan-back
arithmetic reproduces the sequential :meth:`NodeClassificationState.record`
fold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..errors import NotTrainedError
from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from ..obs import (
    counter as obs_counter,
    enabled as obs_enabled,
    event as obs_event,
    histogram as obs_histogram,
)
from .labels import ALL_CLASSES, ClassComposition, SnapshotClass
from .pipeline import ApplicationClassifier


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
        self._states: dict[str, NodeClassificationState] = {}
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
        obs_event("online.attach", nodes=str(len(self._states)))

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
        obs_event("online.detach", nodes=str(len(self._states)))
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
            obs_counter("online.announcements.dropped", help="Announcements ignored.").inc()
            return
        if self._allow is not None and announcement.node not in self._allow:
            obs_counter("online.announcements.dropped", help="Announcements ignored.").inc()
            return
        timed = obs_enabled()
        clock = self.classifier.clock
        t = clock() if timed else 0.0
        cls = self.classify(announcement)
        state = self._states.get(announcement.node)
        if state is None:
            state = NodeClassificationState(node=announcement.node)
            self._states[announcement.node] = state
        state.record(cls, announcement.timestamp)
        if timed:
            obs_histogram(
                "online.announcement.seconds",
                help="Per-announcement online classification latency.",
            ).observe(clock() - t)
            obs_counter("online.announcements.classified", help="Announcements classified.").inc()

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
        if self._allow is not None and node_ids.shape[0]:
            allowed = np.asarray([name in self._allow for name in batch.nodes], dtype=bool)
            keep = allowed[node_ids]
            dropped = node_ids.shape[0] - int(np.count_nonzero(keep))
            if dropped:
                obs_counter("online.announcements.dropped", help="Announcements ignored.").inc(
                    float(dropped)
                )
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
        self._record_codes(batch.nodes, node_ids, timestamps, codes)
        if timed:
            obs_histogram(
                "online.batch.seconds",
                help="Drained-batch online classification latency.",
            ).observe(clock() - t)
            obs_counter("online.announcements.classified", help="Announcements classified.").inc(
                float(codes.shape[0])
            )
        return DrainClassification(
            nodes=batch.nodes,
            node_ids=node_ids.copy(),
            timestamps=timestamps.copy(),
            codes=codes,
            watermark=float(batch.watermark),
        )

    def _record_codes(
        self,
        nodes: tuple[str, ...],
        node_ids: np.ndarray,
        timestamps: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Fold a classified batch into per-node state, record-for-record.

        Vectorized equivalent of calling
        :meth:`NodeClassificationState.record` on each row in timeline
        order: class counts via one bincount per node, and the streak as
        the trailing constant run — extended by the previous streak when
        the whole slice is one class and it matches the node's current
        class (exactly what the sequential fold would have done).
        """
        for node_id in np.unique(node_ids):
            sel = node_ids == node_id
            node_codes = codes[sel]
            node_ts = timestamps[sel]
            node = nodes[int(node_id)]
            state = self._states.get(node)
            if state is None:
                state = NodeClassificationState(node=node)
                self._states[node] = state
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

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """Nodes with at least one classified snapshot, sorted."""
        return sorted(self._states)

    def state(self, node: str) -> NodeClassificationState:
        """Rolling state of *node*.

        Raises
        ------
        KeyError
            If the node has produced no classified snapshots.
        """
        try:
            return self._states[node]
        except KeyError:
            raise KeyError(f"no classified snapshots from node {node!r}") from None

    def stable_class(self, node: str, min_streak: int = 3) -> SnapshotClass | None:
        """The node's current class, if it has persisted *min_streak* snapshots.

        Returns ``None`` during transients — the online analogue of the
        batch majority vote's noise suppression.
        """
        if min_streak < 1:
            raise ValueError("min_streak must be positive")
        state = self.state(node)
        if state.current_class is not None and state.streak >= min_streak:
            return state.current_class
        return None
