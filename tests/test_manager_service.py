"""Tests for the resource-manager facade."""

import numpy as np
import pytest

from repro.core.config import ClassifierConfig
from repro.core.cost_model import UnitCostModel
from repro.core.labels import ClassComposition, SnapshotClass
from repro.errors import UnknownApplicationError, UnknownPolicyError
from repro.manager.service import ResourceManager, shared_model_cache
from repro.vm.resources import ResourceDemand
from repro.workloads.base import constant_workload


def cpu_job(duration=60.0):
    return constant_workload(
        "m-cpu", ResourceDemand(cpu_user=0.9, cpu_system=0.04, mem_mb=20.0), duration
    )


def io_job(duration=60.0):
    return constant_workload(
        "m-io",
        ResourceDemand(cpu_user=0.08, cpu_system=0.12, io_bi=500.0, io_bo=500.0, mem_mb=20.0),
        duration,
    )


@pytest.fixture(scope="module")
def manager(classifier):
    mgr = ResourceManager(classifier=classifier, seed=5)
    mgr.profile_and_learn("cpu-app", cpu_job())
    mgr.profile_and_learn("io-app", io_job())
    mgr.profile_and_learn("io-app", io_job(80.0))
    return mgr


class TestLearning:
    def test_learn_records_runs(self, manager):
        assert manager.known_applications() == ["cpu-app", "io-app"]
        assert manager.db.run_count("io-app") == 2

    def test_learned_classes(self, manager):
        assert manager.class_of("cpu-app") is SnapshotClass.CPU
        assert manager.class_of("io-app") is SnapshotClass.IO

    def test_unknown_application(self, manager):
        # The typed error is also a KeyError, so both clauses catch.
        with pytest.raises(KeyError):
            manager.class_of("ghost")
        with pytest.raises(UnknownApplicationError):
            manager.class_of("ghost")

    def test_classify_does_not_record(self, manager):
        before = manager.db.total_runs()
        result = manager.classify(cpu_job(30.0))
        assert result.application_class is SnapshotClass.CPU
        assert manager.db.total_runs() == before

    def test_environment_recorded(self, manager):
        assert manager.db.runs("cpu-app")[0].environment == {"vm_mem_mb": 256.0}

    def test_lazy_training(self):
        mgr = ResourceManager(seed=3)
        assert mgr.classifier is None
        clf = mgr.ensure_trained()
        assert clf.trained
        assert mgr.ensure_trained() is clf  # cached

    def test_injected_model_cache_is_fetched_lazily(self, classifier):
        requests = []

        class RecordingCache:
            def get(self, config=None, seed=0):
                requests.append((config, seed))
                return classifier

        config = ClassifierConfig()
        mgr = ResourceManager(config=config, seed=3, model_cache=RecordingCache())
        assert mgr.classifier is None, "model fetched on first use, not at build"
        assert mgr.ensure_trained() is classifier
        assert mgr.ensure_trained() is classifier
        assert requests == [(config, 3)]

    def test_untrained_supplied_classifier_rejected(self):
        from repro.core.pipeline import ApplicationClassifier

        mgr = ResourceManager(classifier=ApplicationClassifier())
        with pytest.raises(RuntimeError):
            mgr.ensure_trained()


class TestBatchPaths:
    def test_classify_batch_matches_sequential(self, classifier):
        jobs = [cpu_job(30.0), io_job(30.0), cpu_job(40.0)]
        batched_mgr = ResourceManager(classifier=classifier, seed=11)
        sequential_mgr = ResourceManager(classifier=classifier, seed=11)
        batched = batched_mgr.classify_batch(jobs)
        sequential = [sequential_mgr.classify(job) for job in jobs]
        for bat, seq in zip(batched, sequential):
            assert np.array_equal(bat.class_vector, seq.class_vector)
            assert np.array_equal(bat.scores, seq.scores)
            assert bat.application_class is seq.application_class

    def test_classify_batch_does_not_record(self, classifier):
        mgr = ResourceManager(classifier=classifier, seed=11)
        mgr.classify_batch([cpu_job(30.0), io_job(30.0)])
        assert mgr.db.total_runs() == 0

    def test_learn_many_records_every_run(self, classifier):
        mgr = ResourceManager(classifier=classifier, seed=11)
        outcomes = mgr.learn_many(
            [("cpu-app", cpu_job(30.0)), ("io-app", io_job(30.0)), ("cpu-app", cpu_job(40.0))]
        )
        assert len(outcomes) == 3
        assert mgr.db.run_count("cpu-app") == 2
        assert mgr.db.run_count("io-app") == 1
        assert mgr.class_of("cpu-app") is SnapshotClass.CPU
        for outcome in outcomes:
            assert outcome.record.environment == {"vm_mem_mb": 256.0}
            assert outcome.record.application_class is outcome.result.application_class

    def test_shared_model_cache_is_process_wide(self):
        assert shared_model_cache() is shared_model_cache()
        mgr = ResourceManager()
        assert mgr.model_cache is None  # defaults to the shared one lazily


class TestConsumers:
    def test_class_schedule_spreads_classes(self, manager):
        placement = manager.schedule(["cpu-app", "io-app", "cpu-app", "io-app"], machines=2)
        for machine in placement.machines:
            assert set(machine) == {"cpu-app", "io-app"}

    def test_composition_schedule(self, manager):
        placement = manager.schedule(
            ["cpu-app", "io-app", "cpu-app", "io-app"], machines=2, policy="composition"
        )
        for machine in placement.machines:
            assert set(machine) == {"cpu-app", "io-app"}

    def test_unknown_policy(self, manager):
        # The typed error is also a ValueError, so both clauses catch.
        with pytest.raises(ValueError):
            manager.schedule(["cpu-app"], machines=1, policy="vibes")
        with pytest.raises(UnknownPolicyError):
            manager.schedule(["cpu-app"], machines=1, policy="vibes")

    def test_reserve(self, manager):
        reservation = manager.reserve("io-app")
        assert reservation.io_share > 0.5
        assert reservation.cpu_share < 0.5

    def test_price(self, manager):
        io_pricey = UnitCostModel(alpha=1.0, gamma=10.0)
        cpu_pricey = UnitCostModel(alpha=10.0, gamma=1.0)
        assert manager.price("io-app", io_pricey) > manager.price("io-app", cpu_pricey)
        assert manager.price("cpu-app", cpu_pricey, execution_time_s=10.0) == pytest.approx(
            10.0 * cpu_pricey.unit_application_cost(manager.db.stats("cpu-app").mean_composition)
        )

    def test_predict_runtime_mean(self, manager):
        pred = manager.predict_runtime("io-app")
        assert pred.supporting_runs == 2
        assert 55.0 < pred.predicted_seconds < 110.0

    def test_predict_runtime_with_composition(self, manager):
        comp = manager.db.stats("io-app").mean_composition
        pred = manager.predict_runtime("io-app", composition=comp)
        assert pred.predicted_seconds > 0


class TestReport:
    def test_report_contents(self, manager):
        text = manager.report("io-app")
        assert "Application report: io-app" in text
        assert "consensus class:    IO" in text
        assert "runs learned:       2" in text
        assert "reservation" in text

    def test_report_unknown_app(self, manager):
        with pytest.raises(KeyError):
            manager.report("ghost")


class TestPersistence:
    def test_save_and_reload(self, manager, tmp_path):
        path = tmp_path / "knowledge.json"
        manager.save_knowledge(path)
        reloaded = ResourceManager.with_knowledge(path)
        assert reloaded.known_applications() == manager.known_applications()
        assert reloaded.class_of("io-app") is SnapshotClass.IO
        # Scheduling works without any re-profiling.
        placement = reloaded.schedule(["cpu-app", "io-app"], machines=2)
        assert len(placement.machines) == 2
