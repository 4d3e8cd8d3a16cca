"""End-to-end observability: instrumented pipeline, manager, and CLI."""

import json

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.cli import main
from repro.manager.service import ResourceManager
from repro.obs.export import registry_to_dict
from repro.workloads.catalog import entry

from tests.conftest import instrument
from tests.test_core_pipeline import synthetic_series, synthetic_training


@pytest.fixture(autouse=True)
def _obs_off():
    """Observability never leaks between tests (process-global switch)."""
    obs.disable()
    yield
    obs.disable()


def _span_count(registry, name):
    return instrument(registry, "span.seconds", span=name).count


class TestPipelineInstrumentation:
    def test_stage_histograms_after_classification(self, classifier):
        registry = obs.enable()
        series = synthetic_series("cpu", m=12, seed=6)
        classifier.classify_series(series)
        assert _span_count(registry, "pipeline.classify") == 1
        for stage in ("filter", "normalize", "pca", "knn", "postprocess"):
            h = instrument(registry, "pipeline.stage.seconds", stage=stage)
            assert h.count == 1, stage
            assert h.sum >= 0.0
        assert instrument(registry, "pipeline.runs").value == 1.0
        assert instrument(registry, "pipeline.snapshots").value == float(len(series))

    def test_stage_durations_sum_within_classify_span(self, classifier):
        """Stage latencies are consistent with the enclosing span."""
        registry = obs.enable()
        classifier.classify_series(synthetic_series("io", m=10, seed=7))
        (span_record,) = registry.spans()
        assert span_record.name == "pipeline.classify"
        assert span_record.depth == 0
        stage_total = sum(
            instrument(registry, "pipeline.stage.seconds", stage=s).sum
            for s in ("filter", "normalize", "pca", "knn", "postprocess")
        )
        assert stage_total <= span_record.duration_s

    def test_disabled_classification_records_nothing(self, classifier):
        result = classifier.classify_series(synthetic_series("cpu", m=10, seed=8))
        assert result.num_samples == 10
        assert obs.get_registry().instruments() == []

    def test_result_identical_enabled_vs_disabled(self, classifier):
        """Instrumentation observes; it must never change the answer."""
        series = synthetic_series("net", m=15, seed=9)
        baseline = classifier.classify_series(series)
        obs.enable()
        instrumented = classifier.classify_series(series)
        assert instrumented.class_vector.tolist() == baseline.class_vector.tolist()
        assert instrumented.application_class is baseline.application_class


class TestManagerInstrumentation:
    def test_profile_and_learn_emits_spans_and_counters(self):
        registry = obs.enable()
        e = entry("xspim")
        manager = ResourceManager(seed=0)
        manager.profile_and_learn("xspim", e.build(), vm_mem_mb=e.vm_mem_mb)
        for name in (
            "manager.train",
            "manager.profile_and_learn",
            "manager.profile",
            "manager.classify",
            "pipeline.classify",
        ):
            assert _span_count(registry, name) >= 1, name
        assert instrument(registry, "pipeline.stage.seconds", stage="pca").count >= 1
        assert instrument(registry, "manager.runs.learned").value == 1.0
        # Monitoring substrate counted ingest during the profiled run.
        d = registry_to_dict(registry)
        names = {c["name"] for c in d["counters"]}
        assert "monitoring.aggregator.ingested" in names
        assert "monitoring.gmond.announcements" in names
        assert "sim.ticks" in names


class TestCli:
    def test_obs_dump_prometheus_shows_stage_histograms(self, capsys):
        assert main(["obs", "dump", "--app", "xspim", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("filter", "normalize", "pca", "knn"):
            line = f'repro_pipeline_stage_seconds_count{{stage="{stage}"}}'
            (match,) = [l for l in out.splitlines() if l.startswith(line)]
            assert float(match.split()[-1]) > 0, stage
        assert 'repro_span_seconds_count{span="pipeline.classify"}' in out
        assert "repro_pipeline_runs_total" in out

    def test_obs_dump_json_parses(self, capsys):
        assert main(["obs", "dump", "--app", "xspim", "--seed", "1", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["enabled"] is True
        assert any(h["name"] == "span.seconds" for h in parsed["histograms"])

    def test_obs_dump_trace_is_indented_tree(self, capsys):
        assert main(["obs", "dump", "--app", "xspim", "--seed", "1", "--format", "trace"]) == 0
        out = capsys.readouterr().out
        assert "manager.profile_and_learn" in out
        assert "  manager.profile" in out  # indented child

    def test_obs_dump_unknown_app(self, capsys):
        assert main(["obs", "dump", "--app", "fortnite"]) == 2
        assert "unknown application" in capsys.readouterr().out

    def test_obs_dump_no_run_uses_existing_registry(self, capsys):
        obs.enable()
        obs.get(InstrumentSpec.counter("preexisting.events")).inc()
        assert main(["obs", "dump", "--no-run"]) == 0
        assert "repro_preexisting_events_total 1" in capsys.readouterr().out

    def test_obs_reset_clears_registry(self, capsys):
        registry = obs.enable()
        obs.get(InstrumentSpec.counter("stale")).inc()
        assert main(["obs", "reset"]) == 0
        assert "reset" in capsys.readouterr().out
        assert registry.instruments() == []


def test_online_announcement_metrics():
    """The streaming path times announcements when collection is on."""
    from repro.core.online import OnlineClassifier
    from repro.core.pipeline import ApplicationClassifier
    from repro.monitoring.multicast import MulticastChannel

    from tests.test_core_online import announce_kind

    registry = obs.enable()
    trained = ApplicationClassifier().train(synthetic_training())
    channel = MulticastChannel()
    online = OnlineClassifier(trained, channel, nodes=["VM1"])
    announce_kind(channel, "VM1", 5.0, "cpu")
    announce_kind(channel, "VM2", 5.0, "cpu")  # filtered by allow-list
    assert instrument(registry, "online.announcements.classified").value == 1.0
    assert instrument(registry, "online.announcements.dropped").value == 1.0
    assert instrument(registry, "online.announcement.seconds").count == 1
