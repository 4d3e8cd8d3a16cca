"""repro.ingest — the streaming tick-level ingest plane.

The paper's online path (§4) classifies one gmond announcement at a
time; the batched serve layer classifies whole fleets per call.  This
package is the bridge: an :class:`IngestPlane` that buffers every
node's announcements in one columnar store of fixed-capacity rings with
no per-announcement Python objects, applies watermark/lateness
semantics, and drains merged, chronologically sorted batches into
reused buffers (:mod:`repro.ingest.plane`), ordered by a k-way merged
global announcement timeline with stable node-order tie-breaks
(:mod:`repro.ingest.timeline`) — which ``OnlineClassifier.pump`` then
classifies through the same row-independent kernel as the
per-announcement path, bit-identically per compute dtype.

Layering: ingest sits between monitoring and serve (monitoring →
ingest → serve).  It re-exports the monitoring wire types so serve-side
consumers can build a full pipeline without importing
``repro.monitoring`` directly (which the layering DAG forbids).
"""

from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from .plane import (
    DEFAULT_RING_CAPACITY,
    DrainBatch,
    IngestPlane,
    IngestStats,
    LATE_POLICIES,
    ingest_slo_rules,
)
from .synth import synthetic_fleet
from .timeline import iter_merged, stable_merge_order

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DrainBatch",
    "IngestPlane",
    "IngestStats",
    "LATE_POLICIES",
    "MetricAnnouncement",
    "MulticastChannel",
    "ingest_slo_rules",
    "iter_merged",
    "stable_merge_order",
    "synthetic_fleet",
]
