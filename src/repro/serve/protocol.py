"""The unified ``Classifier`` protocol (public API 3.0.0).

Every classification front end speaks one structural shape:

* ``classify(snapshot)`` — one unit of work (an announcement, a
  snapshot series, a workload), one result;
* ``classify_batch(snapshots)`` — many units in one vectorized call,
  results in input order;
* ``classify_stream(drain_iter)`` — a lazy stream of ingest-plane
  drains (:class:`~repro.ingest.DrainBatch`), one classified window
  yielded per drain.

The protocol is *structural* (:func:`typing.runtime_checkable`): the
snapshot and result types are each implementation's own —
announcements in, ``SnapshotClass`` out for the online path; series in,
``ClassificationResult`` out for the batch path — and each
implementation also carries a ``from_config`` factory that builds it
from a :class:`~repro.core.config.ClassifierConfig` plus an injected
model source.  The ingest plane's consumer path speaks *only* this
protocol.  The pre-1.2 spellings (``classify_announcement``,
``classify_many``, ``classify_only``) were removed in 2.0.0
(``docs/API.md`` § Removed in 2.0).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable

__all__ = ["Classifier"]


@runtime_checkable
class Classifier(Protocol):
    """Structural protocol every classification front end satisfies.

    Implementations: ``repro.core.online.OnlineClassifier``,
    ``repro.serve.batch.BatchClassifier``, and
    ``repro.manager.service.ResourceManager``.
    """

    def classify(self, snapshot) -> object:
        """Classify one unit of work."""
        ...

    def classify_batch(self, snapshots: Iterable) -> list:
        """Classify many units in one vectorized call, in input order."""
        ...

    def classify_stream(self, drains: Iterable) -> Iterator:
        """Lazily classify a stream of drained ingest windows."""
        ...
