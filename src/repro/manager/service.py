"""The resource-manager facade.

The paper situates its classifier inside a resource-management pipeline:
problem-solving environments (In-VIGO) submit requests; VMPlant clones a
dedicated VM; the profiler collects metrics between t0 and t1; the
classification center labels the run; the application DB accumulates
learned behaviour; and schedulers, reservation sizing, pricing, and
runtime prediction all consume that knowledge.

:class:`ResourceManager` packages that pipeline behind one object — the
entry point a downstream adopter actually wants::

    manager = ResourceManager(seed=0)
    manager.profile_and_learn("postmark", postmark())
    manager.profile_and_learn("seis", specseis96("small"))
    placement = manager.schedule(["postmark", "seis"] * 2, machines=2)
    reservation = manager.reserve("postmark")
    price = manager.price("postmark", UnitCostModel(alpha=4, gamma=6))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..core.config import ClassifierConfig
from ..core.cost_model import UnitCostModel
from ..core.labels import ClassComposition, SnapshotClass
from ..core.pipeline import ApplicationClassifier, BatchResult, ClassificationResult
from ..db.prediction import KnnRuntimePredictor, MeanPredictor, RuntimePrediction
from ..db.records import RunRecord
from ..db.store import ApplicationDB
from ..errors import NotTrainedError, UnknownApplicationError, UnknownPolicyError
from ..experiments.training import build_trained_classifier
from ..obs import InstrumentSpec, get as obs_get, span as obs_span
from ..scheduler.class_aware import ClassAwareScheduler, Placement
from ..scheduler.composition_aware import CompositionAwareScheduler
from ..scheduler.reservation import ResourceReservation, recommend_reservation
from ..serve.batch import BatchClassifier
from ..serve.cache import ModelCache
from ..sim.execution import RunResult, profiled_run
from ..workloads.base import Workload


_LEARNED = InstrumentSpec.counter("manager.runs.learned", "Profiling runs learned into the DB.")


def _cache_trainer(config: ClassifierConfig, seed: int) -> ApplicationClassifier:
    return build_trained_classifier(seed=seed, config=config).classifier


#: The process-wide cache keeps the eight most recently used models;
#: fleets cycling through ablation configs evict old PCA bases instead
#: of accreting them (evictions are journalled as ``serve.cache.evicted``).
_SHARED_CACHE_MAX_MODELS = 8

_SHARED_MODEL_CACHE = ModelCache(trainer=_cache_trainer, max_models=_SHARED_CACHE_MAX_MODELS)


def shared_model_cache() -> ModelCache:
    """The process-wide model cache every manager uses by default.

    Keyed by (:class:`~repro.core.config.ClassifierConfig`, seed), so
    two managers with equal training configs share one trained
    classifier instead of re-running the five training profiles; bounded
    LRU (:data:`_SHARED_CACHE_MAX_MODELS`) so long-lived processes stay
    bounded too.  ``compute_dtype`` is part of the config key: a manager
    asking for a float32 tolerance-mode model never receives (or
    clobbers) the float64 reference model, and vice versa.
    """
    return _SHARED_MODEL_CACHE


@dataclass
class LearnOutcome:
    """What one profiling run taught the manager."""

    record: RunRecord
    result: ClassificationResult
    run: RunResult


@dataclass
class ResourceManager:
    """One-stop pipeline: profile → classify → learn → schedule/price/reserve.

    Parameters
    ----------
    classifier:
        A trained classifier, or ``None`` to fetch the model for
        *config* from *model_cache* on first use (training it there if
        the cache has never seen that config).
    db:
        The application database; a fresh one by default.
    seed:
        Base seed for training and profiling runs.
    config:
        Training configuration used when no classifier is supplied;
        ``None`` means the paper's defaults.  Doubles as the model-cache
        key.
    model_cache:
        Where trained models are shared; defaults to the process-wide
        :func:`shared_model_cache`.
    """

    classifier: ApplicationClassifier | None = None
    db: ApplicationDB = field(default_factory=ApplicationDB)
    seed: int = 0
    config: ClassifierConfig | None = None
    model_cache: ModelCache | None = None
    _profile_counter: int = 0

    # ------------------------------------------------------------------
    # classifier lifecycle
    # ------------------------------------------------------------------
    def ensure_trained(self) -> ApplicationClassifier:
        """Fetch (or train) the configured classifier on first use; return it.

        Raises
        ------
        NotTrainedError
            If a classifier was supplied explicitly but is untrained
            (a ``RuntimeError`` subclass).
        """
        if self.classifier is None:
            cache = self.model_cache if self.model_cache is not None else shared_model_cache()
            with obs_span("manager.train"):
                self.classifier = cache.get(self.config, seed=self.seed)
        if not self.classifier.trained:
            raise NotTrainedError("a classifier was supplied but is untrained")
        return self.classifier

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def classify(
        self, workload: Workload, *, vm_mem_mb: float = 256.0
    ) -> ClassificationResult:
        """Profile and classify a workload without recording it."""
        with obs_span("manager.classify"):
            classifier = self.ensure_trained()
            return classifier.classify_series(self._profile(workload, vm_mem_mb).series)

    def classify_batch(
        self, workloads: Sequence[Workload], *, vm_mem_mb: float = 256.0
    ) -> BatchResult:
        """Profile and classify a fleet of workloads in one batched pass.

        Each workload is profiled in its own VM (distinct seeds, exactly
        as repeated :meth:`classify` calls would), then all runs go
        through the vectorized
        :class:`~repro.serve.batch.BatchClassifier` — results are
        bit-identical to per-run classification, nothing is recorded.
        Returns the call's :class:`~repro.core.pipeline.BatchResult`: one
        :class:`ClassificationResult` per workload, in order, each built
        on first access; use ``list(...)`` for list operations such as
        ``+`` or ``append``.
        """
        with obs_span("manager.classify_batch"):
            classifier = self.ensure_trained()
            runs = [self._profile(workload, vm_mem_mb) for workload in workloads]
            return BatchClassifier(classifier).classify_batch([r.series for r in runs])

    def learn_many(
        self,
        named_workloads: Sequence[tuple[str, Workload]],
        *,
        vm_mem_mb: float = 256.0,
    ) -> list[LearnOutcome]:
        """Profile, batch-classify, and record a fleet of named workloads.

        The batched analogue of repeated :meth:`profile_and_learn`
        calls: one :class:`LearnOutcome` per ``(application, workload)``
        pair, with every run's record stored in the application DB and
        classification done through the vectorized serving kernel.
        """
        with obs_span("manager.learn_many"):
            classifier = self.ensure_trained()
            runs = [self._profile(workload, vm_mem_mb) for _, workload in named_workloads]
            results = BatchClassifier(classifier).classify_batch([r.series for r in runs])
            outcomes = [
                self._record(application, run, result, vm_mem_mb)
                for (application, _), run, result in zip(named_workloads, runs, results)
            ]
            obs_get(_LEARNED).inc(len(outcomes))
            return outcomes

    def profile_and_learn(
        self,
        application: str,
        workload: Workload,
        vm_mem_mb: float = 256.0,
    ) -> LearnOutcome:
        """Run *workload* in a dedicated VM, classify it, store the record."""
        with obs_span("manager.profile_and_learn"):
            classifier = self.ensure_trained()
            with obs_span("manager.profile"):
                run = self._profile(workload, vm_mem_mb)
            with obs_span("manager.classify"):
                result = classifier.classify_series(run.series)
            outcome = self._record(application, run, result, vm_mem_mb)
            obs_get(_LEARNED).inc()
            return outcome

    def _profile(self, workload: Workload, vm_mem_mb: float) -> RunResult:
        """Profile *workload* in its own VM, on the next profiling seed."""
        self._profile_counter += 1
        return profiled_run(
            workload, vm_mem_mb=vm_mem_mb, seed=self.seed + 1000 + self._profile_counter
        )

    def _record(
        self,
        application: str,
        run: RunResult,
        result: ClassificationResult,
        vm_mem_mb: float,
    ) -> LearnOutcome:
        """Store *run*'s classification in the application DB."""
        record = RunRecord(
            application=application,
            node=run.node,
            t0=run.t0,
            t1=run.t1,
            num_samples=result.num_samples,
            application_class=result.application_class,
            composition=result.composition,
            environment={"vm_mem_mb": vm_mem_mb},
        )
        self.db.add_run(record)
        return LearnOutcome(record=record, result=result, run=run)

    def known_applications(self) -> list[str]:
        """Applications with at least one learned run."""
        return self.db.applications()

    def class_of(self, application: str) -> SnapshotClass:
        """Learned consensus class.

        Raises
        ------
        UnknownApplicationError
            If the application was never profiled (a ``KeyError``
            subclass, so pre-1.1 ``except KeyError`` clauses still catch).
        """
        known = self.db.known_class(application)
        if known is None:
            raise UnknownApplicationError(
                f"application {application!r} has no learned runs"
            )
        return known

    # ------------------------------------------------------------------
    # consumers of learned knowledge
    # ------------------------------------------------------------------
    def schedule(
        self, jobs: list[str], machines: int, policy: str = "class"
    ) -> Placement:
        """Place *jobs* using learned behaviour.

        *policy* is ``"class"`` (the paper's class-diversity scheduler) or
        ``"composition"`` (the contention-predicting extension).

        Raises
        ------
        UnknownPolicyError
            For an unknown policy (a ``ValueError`` subclass, so
            pre-1.1 ``except ValueError`` clauses still catch).
        """
        with obs_span("manager.schedule"):
            if policy == "class":
                return ClassAwareScheduler(self.db).schedule_jobs(jobs, machines)
            if policy == "composition":
                return CompositionAwareScheduler(self.db).schedule_jobs(jobs, machines)
            raise UnknownPolicyError(
                f"unknown policy {policy!r}; use 'class' or 'composition'"
            )

    def reserve(self, application: str, headroom_sigmas: float = 2.0) -> ResourceReservation:
        """Reservation recommendation from the run history."""
        return recommend_reservation(self.db.stats(application), headroom_sigmas)

    def price(
        self,
        application: str,
        model: UnitCostModel,
        execution_time_s: float | None = None,
    ) -> float:
        """Price a (typical) run under a provider's cost model."""
        stats = self.db.stats(application)
        duration = execution_time_s if execution_time_s is not None else stats.mean_execution_time
        return model.run_cost(stats.mean_composition, duration)

    def predict_runtime(
        self,
        application: str,
        composition: ClassComposition | None = None,
        k: int = 3,
    ) -> RuntimePrediction:
        """Predict execution time from history.

        With *composition* given, uses composition-space k-NN; otherwise
        the per-application mean.
        """
        if composition is None:
            return MeanPredictor(self.db).predict(application)
        return KnnRuntimePredictor(self.db, k=k).predict(application, composition)

    def report(self, application: str) -> str:
        """Human-readable report card of everything learned about an app.

        Raises
        ------
        KeyError
            If the application has no learned runs.
        """
        stats = self.db.stats(application)
        reservation = self.reserve(application)
        comp = stats.mean_composition
        lines = [
            f"Application report: {application}",
            f"  runs learned:       {stats.run_count}",
            f"  consensus class:    {stats.consensus_class.name}",
            "  mean composition:   "
            + "  ".join(
                f"{name.lower()} {100 * frac:.1f}%"
                for name, frac in comp.as_dict().items()
                if frac > 0.005
            ),
            f"  execution time:     {stats.mean_execution_time:.0f} s "
            f"(σ = {stats.execution_time_std:.1f} s)",
            "  reservation (2σ):   "
            f"cpu {reservation.cpu_share:.2f}  io {reservation.io_share:.2f}  "
            f"net {reservation.net_share:.2f}  mem {reservation.mem_share:.2f}",
            f"  duration bound:     {reservation.duration_bound_s:.0f} s",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_knowledge(self, path: str | Path) -> None:
        """Persist the application DB as JSON."""
        self.db.save(path)

    @classmethod
    def with_knowledge(cls, path: str | Path, seed: int = 0) -> "ResourceManager":
        """Construct a manager preloaded from a saved DB."""
        return cls(db=ApplicationDB.load(path), seed=seed)
