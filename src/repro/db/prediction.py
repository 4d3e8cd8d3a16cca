"""Application runtime prediction from classified run history.

The paper positions its classifier as "a good complement to related
application run-time prediction approaches" (§7), citing Kapadia et al.'s
finding that nearest-neighbor methods predict application performance
well.  This module supplies that complement: a k-NN regressor over the
application database that predicts a run's execution time from its
*class composition* and environment — so a scheduler can estimate how
long a job will hold its reservation before launching it.

Two predictors are provided:

* :class:`MeanPredictor` — per-application mean runtime (the baseline any
  history-keeping scheduler already has);
* :class:`KnnRuntimePredictor` — distance-weighted k-NN in composition
  space, optionally conditioned on an environment key (e.g. VM memory),
  which captures environment-induced runtime shifts like the paper's
  SPECseis96 A vs B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.labels import ClassComposition
from .records import RunRecord
from .store import ApplicationDB


@dataclass(frozen=True)
class RuntimePrediction:
    """A predicted execution time with supporting evidence."""

    application: str
    predicted_seconds: float
    supporting_runs: int

    def __post_init__(self) -> None:
        if self.predicted_seconds < 0:
            raise ValueError("predicted runtime must be non-negative")
        if self.supporting_runs < 1:
            raise ValueError("a prediction needs at least one supporting run")


class MeanPredictor:
    """Predicts the per-application mean historical runtime."""

    def __init__(self, db: ApplicationDB) -> None:
        self.db = db

    def predict(self, application: str) -> RuntimePrediction:
        """Mean runtime over all recorded runs.

        Raises
        ------
        KeyError
            If the application has no history.
        """
        stats = self.db.stats(application)
        return RuntimePrediction(
            application=application,
            predicted_seconds=stats.mean_execution_time,
            supporting_runs=stats.run_count,
        )


class KnnRuntimePredictor:
    """Distance-weighted k-NN regression over composition space.

    Parameters
    ----------
    db:
        The application database.
    k:
        Neighbors to average (clipped to available history).
    environment_key:
        Optional key into :attr:`RunRecord.environment`; when set, only
        runs whose environment value matches the query are neighbors
        (e.g. predict a 32 MB-VM run only from 32 MB-VM history).
    """

    def __init__(self, db: ApplicationDB, k: int = 3, environment_key: str | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.db = db
        self.k = k
        self.environment_key = environment_key

    def _candidate_runs(self, application: str, environment_value) -> list[RunRecord]:
        runs = self.db.runs(application)
        if self.environment_key is None:
            return runs
        return [
            r
            for r in runs
            if r.environment.get(self.environment_key) == environment_value
        ]

    def _estimate(self, runs: list[RunRecord], composition: ClassComposition) -> tuple[float, int]:
        """Inverse-distance-weighted mean runtime of the runs nearest *composition*.

        Returns the estimate and the number of neighbors averaged,
        ``min(k, len(runs))``; ties in distance keep history order.
        """
        points = np.array([r.composition.fractions for r in runs])
        times = np.array([r.execution_time for r in runs])
        d = np.linalg.norm(points - np.asarray(composition.fractions), axis=1)
        k = min(self.k, len(runs))
        nearest = np.argsort(d, kind="stable")[:k]
        weights = 1.0 / (d[nearest] + 1e-9)
        return float(np.average(times[nearest], weights=weights)), k

    def predict(
        self,
        application: str,
        composition: ClassComposition,
        environment_value=None,
    ) -> RuntimePrediction:
        """Predict runtime for a run resembling *composition*.

        Uses inverse-distance weighting over the *k* nearest historical
        runs in composition space (exact matches dominate).

        Raises
        ------
        KeyError
            If the application has no (matching) history.
        """
        candidates = self._candidate_runs(application, environment_value)
        if not candidates:
            raise KeyError(
                f"no matching history for {application!r}"
                + (
                    f" with {self.environment_key}={environment_value!r}"
                    if self.environment_key
                    else ""
                )
            )
        predicted, k = self._estimate(candidates, composition)
        return RuntimePrediction(
            application=application,
            predicted_seconds=predicted,
            supporting_runs=k,
        )

    def prediction_error(self, application: str, environment_value=None) -> float:
        """Leave-one-out mean absolute percentage error over the history.

        Raises
        ------
        KeyError / ValueError
            Without at least 2 matching runs.
        """
        candidates = self._candidate_runs(application, environment_value)
        if len(candidates) < 2:
            raise ValueError("need at least 2 runs for leave-one-out evaluation")
        errors = []
        for i, held_out in enumerate(candidates):
            predicted, _ = self._estimate(candidates[:i] + candidates[i + 1 :], held_out.composition)
            errors.append(abs(predicted - held_out.execution_time) / held_out.execution_time)
        return float(np.mean(errors))
