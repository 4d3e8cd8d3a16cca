"""Cluster-state aggregator (gmetad-style).

Maintains the latest announcement per node, plus bounded per-node
history.  Schedulers use it for a "current cluster view"; the profiler
(:mod:`repro.monitoring.profiler`) records its own history because the
paper's data pool needs every snapshot between t0 and t1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..metrics.catalog import metric_index
from ..obs import InstrumentSpec, get as obs_get
from .multicast import MetricAnnouncement, MulticastChannel

_INGESTED = InstrumentSpec.counter(
    "monitoring.aggregator.ingested", "Announcements folded into cluster state."
)


@dataclass
class NodeState:
    """Latest view plus bounded history for one node."""

    node: str
    latest: MetricAnnouncement | None = None
    history: deque = field(default_factory=lambda: deque(maxlen=256))

    def record(self, announcement: MetricAnnouncement) -> None:
        self.latest = announcement
        self.history.append(announcement)


class GmetadAggregator:
    """Subscribes to the multicast channel and aggregates per-node state."""

    def __init__(self, channel: MulticastChannel, history_len: int = 256) -> None:
        if history_len < 1:
            raise ValueError("history_len must be >= 1")
        self._history_len = history_len
        self._nodes: dict[str, NodeState] = {}
        channel.subscribe(self._on_announcement)

    def _on_announcement(self, announcement: MetricAnnouncement) -> None:
        state = self._nodes.get(announcement.node)
        if state is None:
            state = NodeState(node=announcement.node)
            state.history = deque(maxlen=self._history_len)
            self._nodes[announcement.node] = state
        state.record(announcement)
        obs_get(_INGESTED).inc()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """All nodes seen so far, sorted."""
        return sorted(self._nodes)

    def latest(self, node: str) -> MetricAnnouncement:
        """Latest announcement of *node*.

        Raises
        ------
        KeyError
            If the node was never heard from.
        """
        try:
            state = self._nodes[node]
        except KeyError:
            raise KeyError(f"no announcements from node {node!r}") from None
        assert state.latest is not None
        return state.latest

    def latest_metric(self, node: str, metric: str) -> float:
        """Latest value of one metric on one node."""
        return float(self.latest(node).values[metric_index(metric)])

    def recent_mean(self, node: str, metric: str, samples: int = 12) -> float:
        """Mean of *metric* over the node's last *samples* announcements."""
        if samples < 1:
            raise ValueError("samples must be >= 1")
        state = self._nodes.get(node)
        if state is None or not state.history:
            raise KeyError(f"no announcements from node {node!r}")
        idx = metric_index(metric)
        recent = list(state.history)[-samples:]
        return float(np.mean([a.values[idx] for a in recent]))
