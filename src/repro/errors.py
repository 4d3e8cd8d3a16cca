"""repro.errors — the typed exception hierarchy of the public API.

Every error the reproduction raises on a *caller* mistake (as opposed to
an internal invariant violation) derives from :class:`ReproError`, so a
downstream adopter can write one ``except ReproError`` around any repro
call.  Each concrete error *also* inherits the ad-hoc builtin type the
pre-1.1 API raised in its place (``RuntimeError``, ``ValueError``,
``KeyError``), so existing ``except RuntimeError`` / ``except KeyError``
clauses keep catching exactly what they caught before — the migration is
purely additive.

Hierarchy::

    ReproError (Exception)
    ├── NotTrainedError        (also RuntimeError)
    ├── EmptySeriesError       (also ValueError)
    ├── NonFiniteInputError    (also ValueError)
    ├── UnknownApplicationError (also KeyError)
    ├── UnknownPolicyError     (also ValueError)
    └── ServiceOverloadedError (also RuntimeError)

This module is a dependency leaf: it imports nothing from the rest of
the tree, so every layer of the architecture DAG may raise from it.
"""

from __future__ import annotations

__all__ = [
    "EmptySeriesError",
    "NonFiniteInputError",
    "NotTrainedError",
    "ReproError",
    "ServiceOverloadedError",
    "UnknownApplicationError",
    "UnknownPolicyError",
]


class ReproError(Exception):
    """Base class of every caller-facing error raised by ``repro``."""


class NotTrainedError(ReproError, RuntimeError):
    """A classifier was asked to classify (or serve) before training.

    Raised by :meth:`repro.core.pipeline.ApplicationClassifier.classify_series`,
    the online classifier, the batch serving layer, and
    :meth:`repro.manager.service.ResourceManager.ensure_trained` when the
    supplied classifier has no fitted k-NN pool.
    """


class EmptySeriesError(ReproError, ValueError):
    """A snapshot series with zero snapshots reached the classifier.

    The Figure-2 pipeline is defined over ``m >= 1`` snapshots; there is
    no majority vote over nothing.
    """


class NonFiniteInputError(ReproError, ValueError):
    """A matrix with a NaN or infinite value reached the classify kernel.

    Raised by the preprocessing input check behind
    :meth:`~repro.core.pipeline.ApplicationClassifier.classify_series`,
    :meth:`~repro.core.pipeline.ApplicationClassifier.classify_rows`,
    :meth:`~repro.serve.batch.BatchClassifier.classify_batch` and
    training, in either compute dtype.
    """


class UnknownApplicationError(ReproError, KeyError):
    """An application name has no learned runs in the application DB."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument, which garbles prose
        # messages ("\"application 'x' ...\""); show them verbatim.
        return Exception.__str__(self)


class UnknownPolicyError(ReproError, ValueError):
    """A scheduling-policy name is not one the resource manager knows."""


class ServiceOverloadedError(ReproError, RuntimeError):
    """The classification service's bounded queue is full (backpressure).

    Raised by :meth:`repro.serve.service.ClassificationService.submit`
    instead of queueing without bound; callers should retry with backoff
    or shed load upstream.
    """
