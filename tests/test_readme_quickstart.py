"""The README quickstart snippet must work exactly as documented."""

from repro.experiments import build_trained_classifier
from repro.sim import profiled_run
from repro.workloads import postmark


def test_readme_quickstart_snippet():
    outcome = build_trained_classifier(seed=0)
    run = profiled_run(postmark(), seed=42)
    result = outcome.classifier.classify_series(run.series)

    assert result.application_class.name == "IO"
    percentages = result.composition.as_percentages()
    assert set(percentages) == {"IDLE", "IO", "CPU", "NET", "MEM"}
    assert percentages["IO"] > 90.0


def test_readme_serve_snippet():
    from repro.manager.service import shared_model_cache
    from repro.serve import BatchClassifier, ClassificationService

    classifier = shared_model_cache().get()
    series_list = [profiled_run(postmark(), seed=42).series]
    results = BatchClassifier(classifier).classify_batch(series_list)
    assert results[0].application_class.name == "IO"

    with ClassificationService(classifier, batch_size=16) as service:
        futures = [service.submit(series) for series in series_list]
        results = [f.result() for f in futures]
    assert results[0].application_class.name == "IO"


def test_readme_ingest_snippet():
    from repro.core.online import OnlineClassifier
    from repro.ingest import IngestPlane, MulticastChannel, synthetic_fleet
    from repro.manager.service import shared_model_cache

    classifier = shared_model_cache().get()
    channel = MulticastChannel()
    plane = IngestPlane(channel, lateness_s=5.0)
    online = OnlineClassifier(classifier, plane)

    for announcement in synthetic_fleet(4, 8, seed=1):
        channel.announce(announcement)
    window = online.pump(flush=True)
    assert len(window) == 32
    assert len(online.nodes()) == 4


def test_package_version_importable():
    import repro

    assert repro.__version__ == "5.0.0"
    # Every advertised subpackage is importable from the root.
    for name in repro.__all__:
        if name != "__version__":
            assert getattr(repro, name) is not None
