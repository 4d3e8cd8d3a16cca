"""Bounded structured event journal with span correlation.

Metrics say *how much*; spans say *how long*; events say *what
happened*.  The journal records the discrete state transitions the
registry's instruments only count — a model evicted from the serve
cache, a service shedding load or draining, an online classifier
detaching from its channel, the application DB hitting disk, a
scheduler migrating an instance — as structured records a human or a
log pipeline can replay.

Each record carries the id of the span enclosing the ``event()`` call
(see :class:`~repro.obs.spans.SpanRecord`), so a JSONL export of the
journal joins against a trace dump on ``span_id`` and every event lands
inside the operation that produced it.

The registry keeps the journal in a fixed-capacity ring, exactly like
its span buffer: old events fall off the back, memory stays bounded no
matter how long the process runs, and capacity is configurable per
registry (``obs.enable(event_capacity=...)`` or
``REPRO_OBS_EVENT_CAPACITY``).  This module holds the record type and
its JSONL renderer.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

#: Default events retained in the journal ring.
DEFAULT_EVENT_CAPACITY = 1024


class EventRecord(NamedTuple):
    """One structured event."""

    #: Clock reading when the event was recorded (registry clock units).
    t_s: float
    #: Dotted event name (``serve.overloaded``, ``db.saved``).
    name: str
    #: Id of the span open when the event fired, or ``None`` outside
    #: any span — joins against :attr:`~repro.obs.spans.SpanRecord.span_id`.
    span_id: int | None
    #: Sorted ``(key, value)`` pairs of the event's structured fields.
    fields: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSON exporters."""
        return {
            "t_s": self.t_s,
            "name": self.name,
            "span_id": self.span_id,
            "fields": dict(self.fields),
        }


def render_events_jsonl(records: Iterable[EventRecord]) -> str:
    """Render events as JSON Lines (one compact object per line).

    The output ends with a newline when any record is rendered, so it
    can be appended to a log file or piped into ``jq`` directly.
    """
    lines = [
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "DEFAULT_EVENT_CAPACITY",
    "EventRecord",
    "render_events_jsonl",
]
